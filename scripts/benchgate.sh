#!/usr/bin/env bash
# benchgate.sh [BASE_REF] — benchmark regression gate.
#
# Runs the pinned micro-benchmark set (sampler kernels + both simulation
# engines, plain and biased) at BASE_REF and at the working tree, prints a
# benchstat comparison when benchstat is on PATH, and exits non-zero if any
# pinned benchmark's median sec/op regresses by more than
# MAX_REGRESSION_PCT (default 10).
#
# Skip knobs (see DESIGN.md "Benchmark gate"):
#   * docs-only diffs (every changed file *.md) skip automatically;
#   * the CI job also skips when the PR title contains [skip-bench].
#
# Environment overrides:
#   BENCH_COUNT         repetitions per side (default 10)
#   BENCH_TIME          -benchtime per repetition (default 0.5s)
#   MAX_REGRESSION_PCT  failure threshold in percent (default 10)
set -euo pipefail

BASE_REF="${1:-origin/main}"
COUNT="${BENCH_COUNT:-10}"
BENCHTIME="${BENCH_TIME:-0.5s}"
MAX_PCT="${MAX_REGRESSION_PCT:-10}"
# The pinned set: small, stable benchmarks that cover the per-draw kernels,
# the end-to-end engine iteration, and the runner's dispatch loop
# (BenchmarkRunSparse/default and /engine=event). Sub-benchmarks of the
# listed names are included.
PIN='^(BenchmarkKernelWeibull|BenchmarkKernelTilted|BenchmarkKernelFill|BenchmarkEngineTimelineInto|BenchmarkEngineTimelineFlatTopoInto|BenchmarkEngineTimelineBiasedInto|BenchmarkEngineSequentialInto|BenchmarkEngineSequentialBiasedInto|BenchmarkEngineBlockInto|BenchmarkEngineBlockBiasedInto|BenchmarkEngineBlockVRInto|BenchmarkFleetInto|BenchmarkRunSparse)$'
# The batched engine must hold its headline speedup over the scalar
# interval engine (BENCH_sim.json): block median <= sequential/MIN_SPEEDUP.
MIN_SPEEDUP="${MIN_BLOCK_SPEEDUP:-1.5}"
# The biased block path must hold its speedup over the biased interval
# scalar (the batched likelihood-ratio column rework, BENCH_sim.json).
MIN_BIASED_SPEEDUP="${MIN_BIASED_BLOCK_SPEEDUP:-1.4}"
PKGS=". ./internal/dist"

cd "$(dirname "$0")/.."

if changed=$(git diff --name-only "${BASE_REF}...HEAD" 2>/dev/null) && [ -n "$changed" ]; then
  if ! grep -qv '\.md$' <<<"$changed"; then
    echo "benchgate: docs-only diff vs ${BASE_REF}; skipping benchmark gate"
    exit 0
  fi
fi

tmp=$(mktemp -d)
cleanup() {
  git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

run_bench() {
  # shellcheck disable=SC2086  # PKGS is a deliberate word list
  (cd "$1" && go test -run '^$' -bench "$PIN" -count "$COUNT" -benchtime "$BENCHTIME" $PKGS)
}

echo "benchgate: measuring HEAD (working tree), count=$COUNT benchtime=$BENCHTIME"
run_bench . >"$tmp/head.txt"

echo "benchgate: measuring base $BASE_REF"
git worktree add --detach "$tmp/base" "$BASE_REF" >/dev/null
run_bench "$tmp/base" >"$tmp/base.txt" || true

# medians FILE — "name median_ns" per pinned benchmark, sorted by name.
medians() {
  awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") vals[name] = vals[name] " " $i
    }
    END {
      for (name in vals) {
        n = split(vals[name], a, " ")
        for (i = 2; i <= n; i++) {        # insertion sort; n is tiny
          v = a[i]
          for (j = i - 1; j >= 1 && a[j] + 0 > v + 0; j--) a[j + 1] = a[j]
          a[j + 1] = v
        }
        m = (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        printf "%s %.2f\n", name, m
      }
    }' "$1" | sort
}

if ! grep -q '^Benchmark' "$tmp/base.txt"; then
  echo "benchgate: base $BASE_REF has none of the pinned benchmarks; nothing to gate"
  exit 0
fi

if command -v benchstat >/dev/null 2>&1; then
  echo
  benchstat "$tmp/base.txt" "$tmp/head.txt" || true
  echo
fi

echo "benchgate: median sec/op, base vs head (fail above +${MAX_PCT}%)"
join <(medians "$tmp/base.txt") <(medians "$tmp/head.txt") |
  awk -v max="$MAX_PCT" '
    {
      delta = ($3 - $2) / $2 * 100
      printf "  %-55s %12.1f %12.1f %+7.1f%%\n", $1, $2, $3, delta
      if (delta > max) { bad = 1; worst = (delta > worst) ? delta : worst }
    }
    END {
      if (bad) {
        printf "benchgate: FAIL — regression of %+.1f%% exceeds %.0f%% threshold\n", worst, max
        exit 1
      }
      print "benchgate: OK"
    }'

# Head-only absolute gate: the block engine's amortized per-iteration cost
# must stay at least MIN_SPEEDUP× below the default event engine's and no
# worse than the faster scalar (interval) engine's. The event-engine ratio
# is ~3× with margin; the interval ratio (~1.6×) drifts with single-core VM
# noise between invocations, so it gates at parity rather than flaking.
# Base refs that predate the block engine simply lack the benchmark, so
# this compares within the head measurement.
medians "$tmp/head.txt" | awk -v min="$MIN_SPEEDUP" '
  $1 == "BenchmarkEngineBlockInto" { block = $2 }
  $1 == "BenchmarkEngineSequentialInto" { seq = $2 }
  $1 == "BenchmarkEngineTimelineInto" { evt = $2 }
  END {
    if (!block || !seq || !evt) {
      print "benchgate: block/scalar medians not all measured; skipping speedup gate"
      exit 0
    }
    printf "benchgate: block %.0f ns vs event %.0f ns (%.2fx, gate >= %.2fx) vs interval %.0f ns (%.2fx, gate >= 1x)\n", \
      block, evt, evt / block, min, seq, seq / block
    if (evt / block < min) {
      print "benchgate: FAIL — batched engine lost its speedup over the event engine"
      exit 1
    }
    if (block > seq) {
      print "benchgate: FAIL — batched engine slower than the scalar interval engine"
      exit 1
    }
  }'

# Head-only biased-path gate: the batched likelihood-ratio columns must
# keep the biased block path at least MIN_BIASED_SPEEDUP× below the biased
# interval scalar. Medians come from the same invocation's -count
# repetitions, which go test interleaves across the whole set — the VM's
# ±20% slow drift between invocations cancels out of the ratio.
medians "$tmp/head.txt" | awk -v min="$MIN_BIASED_SPEEDUP" '
  $1 == "BenchmarkEngineBlockBiasedInto" { block = $2 }
  $1 == "BenchmarkEngineSequentialBiasedInto" { seq = $2 }
  END {
    if (!block || !seq) {
      print "benchgate: biased block/scalar medians not all measured; skipping biased speedup gate"
      exit 0
    }
    printf "benchgate: biased block %.0f ns vs biased interval %.0f ns (%.2fx, gate >= %.2fx)\n", \
      block, seq, seq / block, min
    if (seq / block < min) {
      print "benchgate: FAIL — biased block path lost its speedup over the biased interval scalar"
      exit 1
    }
  }'

# Head-only topology gate: a flat (component-free) topology must compile
# down to the plain per-drive event engine — its median may sit at most
# MAX_PCT above BenchmarkEngineTimelineInto's, i.e. within the same noise
# band the base-vs-head gate tolerates. Catches any accidental per-event
# cost sneaking into the flat fast path.
medians "$tmp/head.txt" | awk -v max="$MAX_PCT" '
  $1 == "BenchmarkEngineTimelineInto" { plain = $2 }
  $1 == "BenchmarkEngineTimelineFlatTopoInto" { flat = $2 }
  END {
    if (!plain || !flat) {
      print "benchgate: flat-topology medians not all measured; skipping topology gate"
      exit 0
    }
    delta = (flat - plain) / plain * 100
    printf "benchgate: flat-topology event engine %.0f ns vs plain %.0f ns (%+.1f%%, gate <= +%.0f%%)\n", \
      flat, plain, delta, max
    if (delta > max) {
      print "benchgate: FAIL — flat topology no longer free on the event-engine hot path"
      exit 1
    }
  }'

# Statistical-efficiency gates: the variance-reduction stack must keep
# reaching the relative-CI target with >= 2x fewer iterations than the
# plain estimator on the paper no-scrub base case, and the conditional-DDF
# variate with >= 3x fewer on the scrubbed base case (the BENCH_sim.json
# variance_reduction figures). The tests fail on any regression.
echo "benchgate: checking iterations-to-CI efficiency figures"
go test ./internal/campaign/ -run '^TestVREfficiencyFigure$' -count 1 >/dev/null || {
  echo "benchgate: FAIL — TestVREfficiencyFigure regressed (VR iterations-to-CI advantage below 2x)"
  exit 1
}
go test ./internal/campaign/ -run '^TestVREfficiencyFigureScrubbed$' -count 1 >/dev/null || {
  echo "benchgate: FAIL — TestVREfficiencyFigureScrubbed regressed (cond-variate iterations-to-CI advantage below 3x)"
  exit 1
}
echo "benchgate: efficiency figures OK"

# Fleet-scale allocation gate: a warm fleet chronology (10^5 idle groups,
# and a smaller busy contended fleet) must stay at 0 steady-state heap
# allocations — the property that makes million-group fleet sweeps
# tractable (BENCH_sim.json BenchmarkFleetInto).
echo "benchgate: checking fleet zero-alloc guard"
go test ./internal/sim/ -run '^TestFleetIntoZeroAlloc' -count 1 >/dev/null || {
  echo "benchgate: FAIL — TestFleetIntoZeroAlloc regressed (fleet chronologies allocate in steady state)"
  exit 1
}
echo "benchgate: fleet zero-alloc guard OK"
