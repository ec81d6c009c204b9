#!/usr/bin/env bash
# raidreld_smoke.sh — end-to-end smoke test of the raidreld daemon.
#
# Builds raidreld, starts it on an ephemeral port with one scheduler slot,
# submits a small campaign over HTTP, polls it to completion, fetches the
# result, then submits the identical spec again and asserts the second
# submission is a cache hit (served without re-simulating: the iteration
# counter in /metrics must not move). Then it runs two shards of another
# campaign, merges them with POST /v1/merge, and asserts the unsharded
# campaign is a cache hit on the merge. It cancels a job queued behind a
# long one with DELETE and asserts it ends canceled. Finishes with a
# graceful SIGTERM drain.
#
# Requires only bash + curl + the go toolchain (JSON is picked apart with
# grep/sed so the script runs on a bare CI image).
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -TERM "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/raidreld" ./cmd/raidreld

echo "== start"
"$WORK/raidreld" -addr 127.0.0.1:0 -max-concurrent 1 -checkpoint-dir "$WORK/ckpt" >"$WORK/out.log" &
DAEMON_PID=$!

ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^raidreld: listening on //p' "$WORK/out.log")"
  [ -n "$ADDR" ] && break
  kill -0 "$DAEMON_PID" || { echo "daemon died on startup" >&2; cat "$WORK/out.log" >&2; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "daemon never announced its address" >&2; exit 1; }
BASE="http://$ADDR"
echo "daemon at $BASE"

curl -fsS "$BASE/healthz" | grep -q '"status": "ok"'

PARAMS='{
    "group_size": 8, "redundancy": 1, "mission_hours": 87600,
    "tt_op": {"scale": 461386, "shape": 1.12},
    "ttr": {"location": 6, "scale": 12, "shape": 2}
  }'
SPEC="{\"params\": $PARAMS, \"seed\": 7, \"iterations\": 5000}"

# field NAME: the first "NAME": "value" string in the JSON on stdin.
field() { sed -n "s/.*\"$1\": \"\([^\"]*\)\".*/\1/p" | head -1; }

# submit SPEC: POST a job spec and print the new job's id.
submit() {
  local doc id
  doc="$(curl -fsS -X POST -d "$1" "$BASE/v1/jobs")"
  id="$(printf '%s' "$doc" | field id)"
  [ -n "$id" ] || { echo "no job id in: $doc" >&2; exit 1; }
  printf '%s' "$id"
}

# wait_done ID: poll a job until it is done.
wait_done() {
  local state=""
  for _ in $(seq 1 300); do
    state="$(curl -fsS "$BASE/v1/jobs/$1" | field state)"
    case "$state" in
      done) return ;;
      failed|canceled) echo "job $1 ended $state" >&2; exit 1 ;;
    esac
    sleep 0.1
  done
  echo "job $1 stuck in '$state'" >&2; exit 1
}

iterations_simulated() {
  curl -fsS "$BASE/metrics" | sed -n 's/.*"iterations_simulated": \([0-9]*\).*/\1/p'
}

echo "== submit"
JOB_ID="$(submit "$SPEC")"
echo "job $JOB_ID"

echo "== poll"
wait_done "$JOB_ID"

echo "== result"
RESULT="$(curl -fsS "$BASE/v1/jobs/$JOB_ID/result")"
printf '%s' "$RESULT" | grep -q '"iterations": 5000' || {
  echo "unexpected result: $RESULT" >&2; exit 1; }

ITERS_BEFORE="$(iterations_simulated)"

echo "== resubmit (must be a cache hit)"
AGAIN="$(curl -fsS -X POST -d "$SPEC" "$BASE/v1/jobs")"
printf '%s' "$AGAIN" | grep -q '"cached": true' || {
  echo "second submission was not served from cache: $AGAIN" >&2; exit 1; }
printf '%s' "$AGAIN" | grep -q "\"id\": \"$JOB_ID\"" || {
  echo "cache hit returned a different job: $AGAIN" >&2; exit 1; }

METRICS="$(curl -fsS "$BASE/metrics")"
ITERS_AFTER="$(printf '%s' "$METRICS" | sed -n 's/.*"iterations_simulated": \([0-9]*\).*/\1/p')"
[ "$ITERS_BEFORE" = "$ITERS_AFTER" ] || {
  echo "cache hit re-simulated: $ITERS_BEFORE -> $ITERS_AFTER" >&2; exit 1; }
printf '%s' "$METRICS" | grep -q '"cache_hits": 1' || {
  echo "cache_hits counter did not move: $METRICS" >&2; exit 1; }

echo "== shards and merge"
SHARD_IDS=()
for i in 0 1; do
  SHARD_IDS+=("$(submit "{\"params\": $PARAMS, \"seed\": 9, \"iterations\": 4000, \"shard\": {\"index\": $i, \"count\": 2}}")")
done
for id in "${SHARD_IDS[@]}"; do wait_done "$id"; done
MERGED="$(curl -fsS -X POST -d "{\"jobs\": [\"${SHARD_IDS[0]}\", \"${SHARD_IDS[1]}\"]}" "$BASE/v1/merge")"
printf '%s' "$MERGED" | grep -q '"reason": "merged"' || {
  echo "unexpected merge result: $MERGED" >&2; exit 1; }
printf '%s' "$MERGED" | grep -q '"iterations": 4000' || {
  echo "merge does not cover the whole campaign: $MERGED" >&2; exit 1; }
MERGED_ID="$(printf '%s' "$MERGED" | field id)"

echo "== unsharded resubmit (must be a cache hit on the merge)"
ITERS_BEFORE="$(iterations_simulated)"
WHOLE="$(curl -fsS -X POST -d "{\"params\": $PARAMS, \"seed\": 9, \"iterations\": 4000}" "$BASE/v1/jobs")"
printf '%s' "$WHOLE" | grep -q '"cached": true' || {
  echo "unsharded submission was not served from the merge: $WHOLE" >&2; exit 1; }
printf '%s' "$WHOLE" | grep -q "\"id\": \"$MERGED_ID\"" || {
  echo "unsharded submission hit a job other than the merge $MERGED_ID: $WHOLE" >&2; exit 1; }
ITERS_AFTER="$(iterations_simulated)"
[ "$ITERS_BEFORE" = "$ITERS_AFTER" ] || {
  echo "unsharded cache hit re-simulated: $ITERS_BEFORE -> $ITERS_AFTER" >&2; exit 1; }

echo "== cancel a queued job"
# The one scheduler slot runs LONG_ID, so the next job waits in the queue.
LONG_ID="$(submit "{\"params\": $PARAMS, \"seed\": 11, \"iterations\": 100000000, \"batch\": 2000}")"
QUEUED_ID="$(submit "{\"params\": $PARAMS, \"seed\": 12, \"iterations\": 5000}")"
STATE="$(curl -fsS "$BASE/v1/jobs/$QUEUED_ID" | field state)"
[ "$STATE" = queued ] || { echo "job $QUEUED_ID is '$STATE', want queued" >&2; exit 1; }
CANCELED="$(curl -fsS -X DELETE "$BASE/v1/jobs/$QUEUED_ID")"
printf '%s' "$CANCELED" | grep -q '"state": "canceled"' || {
  echo "DELETE did not cancel the queued job: $CANCELED" >&2; exit 1; }
STATE="$(curl -fsS "$BASE/v1/jobs/$QUEUED_ID" | field state)"
[ "$STATE" = canceled ] || { echo "canceled job $QUEUED_ID later reads '$STATE'" >&2; exit 1; }
echo "long job $LONG_ID left running for the drain"

echo "== drain"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q "drained, all in-flight campaigns checkpointed" "$WORK/out.log" || {
  echo "no drain confirmation:" >&2; cat "$WORK/out.log" >&2; exit 1; }

echo "smoke OK"
