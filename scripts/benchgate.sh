#!/usr/bin/env bash
# benchgate.sh [BASE_REF] — benchmark regression gate.
#
# Runs the pinned micro-benchmark set (sampler kernels, the event, block
# and fleet engines, plain and biased) at BASE_REF and at the working tree, prints a
# benchstat comparison when benchstat is on PATH, and exits non-zero if any
# pinned benchmark's median head/base sec/op ratio regresses by more than
# MAX_REGRESSION_PCT (default 10), or if HEAD fails to build, fails a run,
# or lacks a pinned benchmark the base measured.
#
# Measurement is interleaved: both sides' test binaries are built once
# (go test -c), then base and head alternate for BENCH_COUNT pairs, the
# side that runs first flipping every pair. Each pinned benchmark is gated
# on the median of its per-pair head/base ratios, so VM drift between
# minutes of a run cancels out of every ratio instead of landing on one
# side.
#
# Skip knobs (see DESIGN.md "Benchmark gate"):
#   * docs-only diffs (every changed file *.md) skip automatically;
#   * the CI job also skips when the PR title contains [skip-bench].
#
# Environment overrides:
#   BENCH_COUNT         base/head pairs (default 10)
#   BENCH_TIME          -benchtime per run (default 0.5s)
#   MAX_REGRESSION_PCT  failure threshold in percent (default 10)
set -euo pipefail

BASE_REF="${1:-origin/main}"
COUNT="${BENCH_COUNT:-10}"
BENCHTIME="${BENCH_TIME:-0.5s}"
MAX_PCT="${MAX_REGRESSION_PCT:-10}"
# The pinned set: small, stable benchmarks that cover the per-draw kernels,
# the end-to-end engine iteration, the runner's dispatch loop
# (BenchmarkRunSparse/default and /engine=event), and whole adaptive
# campaigns, plain and importance-sampled (BenchmarkAdaptiveCampaign,
# BenchmarkAdaptiveCampaignBiased). Sub-benchmarks of the listed names are
# included. A pinned benchmark the base does not have yet is reported as
# new and not gated.
PIN='^(BenchmarkKernelWeibull|BenchmarkKernelTilted|BenchmarkEngineTimelineInto|BenchmarkEngineTimelineFlatTopoInto|BenchmarkEngineTimelineBiasedInto|BenchmarkEngineBlockInto|BenchmarkEngineBlockBiasedInto|BenchmarkEngineBlockVRInto|BenchmarkFleetInto|BenchmarkRunSparse|BenchmarkAdaptiveCampaign|BenchmarkAdaptiveCampaignBiased)$'
# The block engine must hold its speedup over the event engine
# (BENCH_sim.json): block median <= event/MIN_SPEEDUP. 1.8 carries over the
# retired "block no slower than the interval engine" floor, the interval
# engine having run ~1.8x faster than the event engine.
MIN_SPEEDUP="${MIN_BLOCK_SPEEDUP:-1.8}"
# The biased block path must hold its speedup over the biased event
# engine: 1.4x over the retired biased interval engine, times its measured
# ~1.5x lead over the biased event engine (see CHANGES.md).
MIN_BIASED_SPEEDUP="${MIN_BIASED_BLOCK_SPEEDUP:-2.15}"
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

echo "benchgate: building test binaries at HEAD (working tree) and base $BASE_REF"
git worktree add --detach "$tmp/base" "$BASE_REF" >/dev/null
mkdir -p "$tmp/bin"
# build TREE SIDE — one test binary per package in PKGS. A package the
# base cannot build leaves no binary; its benchmarks then count as new. A
# package HEAD cannot build fails the gate. -trimpath keeps the checkout's
# path out of the binary, so a package the change does not touch builds
# to the same bytes on both sides.
build() {
  for p in $PKGS; do
    (cd "$1" && go test -c -trimpath -o "$tmp/bin/$2.$(tr '/.' '__' <<<"$p").test" "$p") ||
      [ "$2" = base ] || { echo "benchgate: FAIL — $p does not build at HEAD" >&2; exit 1; }
  done
}
build . head
build "$tmp/base" base

# run_side TREE SIDE PAIR — one run of every pinned benchmark on SIDE,
# appending the raw output to SIDE.txt and "pair name ns" to SIDE.pairs.
# Binaries run from their package directory, as go test would. A HEAD run
# that fails (a benchmark panics or calls b.Fatal) fails the gate; a
# failing base run only loses the benchmarks it did not reach.
run_side() {
  for p in $PKGS; do
    bin="$tmp/bin/$2.$(tr '/.' '__' <<<"$p").test"
    [ -x "$bin" ] || continue
    (cd "$1/$p" && "$bin" -test.run '^$' -test.bench "$PIN" -test.count 1 -test.benchtime "$BENCHTIME") ||
      [ "$2" = base ] || { echo "benchgate: FAIL — $p benchmarks failed at HEAD (pair $3)" >&2; exit 1; }
  done | tee -a "$tmp/$2.txt" | awk -v pair="$3" '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") print pair, name, $i
    }' >>"$tmp/$2.pairs"
}

echo "benchgate: measuring $COUNT interleaved base/head pairs, benchtime=$BENCHTIME"
: >"$tmp/base.txt"; : >"$tmp/head.txt"; : >"$tmp/base.pairs"; : >"$tmp/head.pairs"
for i in $(seq 1 "$COUNT"); do
  if [ $((i % 2)) -eq 1 ]; then
    run_side "$tmp/base" base "$i"
    run_side . head "$i"
  else
    run_side . head "$i"
    run_side "$tmp/base" base "$i"
  fi
done

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

# pair_ratios — "name base_median head_median median_ratio pairs" per
# pinned benchmark measured on both sides, "name - head_median" for one
# the base lacks, "name base_median -" for one HEAD lacks; sorted by
# name. The ratio is the median over pairs of head/base, each pair
# measured back to back.
pair_ratios() {
  awk '
    function median(s,   a, n, i, j, v) {
      n = split(s, a, " ")
      for (i = 2; i <= n; i++) {
        v = a[i]
        for (j = i - 1; j >= 1 && a[j] + 0 > v + 0; j--) a[j + 1] = a[j]
        a[j + 1] = v
      }
      return (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    FNR == NR { base[$1 SUBSEP $2] = $3; bonly[$2] = bonly[$2] " " $3; next }
    {
      names[$2] = 1; hv[$2] = hv[$2] " " $3
      if (($1 SUBSEP $2) in base) {
        b = base[$1 SUBSEP $2]
        bv[$2] = bv[$2] " " b; r[$2] = r[$2] " " ($3 / b); np[$2]++
      }
    }
    END {
      for (name in names) {
        if (np[name]) printf "%s %.2f %.2f %.4f %d\n", name, median(bv[name]), median(hv[name]), median(r[name]), np[name]
        else printf "%s - %.2f\n", name, median(hv[name])
      }
      for (name in bonly) if (!(name in names)) printf "%s %.2f -\n", name, median(bonly[name])
    }' "$tmp/base.pairs" "$tmp/head.pairs" | sort
}

if ! [ -s "$tmp/base.pairs" ]; then
  echo "benchgate: base $BASE_REF has none of the pinned benchmarks; nothing to gate"
  exit 0
fi

if command -v benchstat >/dev/null 2>&1; then
  echo
  benchstat "$tmp/base.txt" "$tmp/head.txt" || true
  echo
fi

echo "benchgate: median sec/op and median per-pair head/base ratio (fail above +${MAX_PCT}%)"
pair_ratios |
  awk -v max="$MAX_PCT" '
    $2 == "-" {
      printf "  %-55s %12s %12.1f %8s\n", $1, "-", $3, "new"
      next
    }
    $3 == "-" {
      printf "  %-55s %12.1f %12s %8s\n", $1, $2, "-", "missing"
      missing = 1
      next
    }
    {
      delta = ($4 - 1) * 100
      printf "  %-55s %12.1f %12.1f %+7.1f%%  (%d pairs)\n", $1, $2, $3, delta, $5
      if (delta > max) { bad = 1; worst = (delta > worst) ? delta : worst }
    }
    END {
      if (missing) print "benchgate: FAIL — pinned benchmarks measured at base are missing at HEAD"
      if (bad) {
        printf "benchgate: FAIL — regression of %+.1f%% exceeds %.0f%% threshold\n", worst, max
      }
      if (missing || bad) exit 1
      print "benchgate: OK"
    }'

# Head-only absolute gates: the block engine's amortized per-iteration
# cost must stay at least MIN_SPEEDUP× below the event engine's, plain, and
# MIN_BIASED_SPEEDUP× below it under the θ = 8 tilt (the batched
# likelihood-ratio columns). Medians come from the same head runs, which
# interleave the whole pinned set — the VM's ±20% slow drift cancels out of
# the ratio. Base refs that predate the block engine simply lack the
# benchmark, so this compares within the head measurement.
# speedup_gate LABEL BLOCK_BENCH EVENT_BENCH MIN
speedup_gate() {
  medians "$tmp/head.txt" | awk -v label="$1" -v bb="$2" -v eb="$3" -v min="$4" '
    $1 == bb { block = $2 }
    $1 == eb { evt = $2 }
    END {
      if (!block || !evt) {
        printf "benchgate: %sblock/event medians not all measured; skipping speedup gate\n", label
        exit 0
      }
      printf "benchgate: %sblock %.0f ns vs %sevent %.0f ns (%.2fx, gate >= %.2fx)\n", \
        label, block, label, evt, evt / block, min
      if (evt / block < min) {
        printf "benchgate: FAIL — %sblock engine lost its speedup over the %sevent engine\n", label, label
        exit 1
      }
    }'
}
speedup_gate "" BenchmarkEngineBlockInto BenchmarkEngineTimelineInto "$MIN_SPEEDUP"
speedup_gate "biased " BenchmarkEngineBlockBiasedInto BenchmarkEngineTimelineBiasedInto "$MIN_BIASED_SPEEDUP"

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
