#!/usr/bin/env bash
# check_dist.sh — CI end-to-end check of the distributed-enumeration
# contract (docs/DISTRIBUTED.md): a coordinator plus three worker
# processes on one host, with one worker kill -9'd mid-run, must finish
# with a global digest identical to a direct single-process `mbe` run.
# The lease janitor re-issues the dead worker's range from its confirmed
# watermark; any dropped or double-merged biclique changes the multiset
# digest and fails the check.
#
# Usage: check_dist.sh <mbecoord-binary> <mbe-binary> <dataset> [kill_after_s]
#
#   1. Run `mbe -digest` single-process; record the reference digest.
#   2. Start mbecoord (-exit-when-done, 2s lease TTL) and three workers.
#   3. After kill_after seconds, kill -9 one worker.
#   4. Wait for the coordinator to print the global digest and compare.
#
# A machine fast enough to finish before the kill lands is tolerated:
# the kill is then a no-op and the digests must still match. The script
# prints whether the kill hit a live worker. CI and `make check-dist` run
# it on ceb, where the three workers are still busy after the default 1 s;
# GH can finish first.
set -u

coord_bin="${1:?usage: check_dist.sh <mbecoord-binary> <mbe-binary> <dataset> [kill_after_s]}"
mbe_bin="${2:?usage: check_dist.sh <mbecoord-binary> <mbe-binary> <dataset> [kill_after_s]}"
dataset="${3:?usage: check_dist.sh <mbecoord-binary> <mbe-binary> <dataset> [kill_after_s]}"
kill_after="${4:-1}"
addr="127.0.0.1:${MBE_DIST_PORT:-7641}"

work=$(mktemp -d) || exit 1
workers=()
cleanup() {
  for pid in "${workers[@]:-}" "${coord_pid:-}"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null
  done
  rm -rf "$work"
}
trap cleanup EXIT

echo "check_dist: single-process reference run ($dataset, AdaMBE)"
ref=$("$mbe_bin" -d "$dataset" -a AdaMBE -digest | grep '^digest:') || {
  echo "check_dist: reference run failed" >&2; exit 1; }
echo "check_dist: reference $ref"

echo "check_dist: starting coordinator on $addr (12 ranges, 2s lease TTL)"
"$coord_bin" -addr "$addr" -dir "$work/dist" -d "$dataset" -a AdaMBE \
  -ranges 12 -lease-ttl 2s -exit-when-done >"$work/coord.out" 2>"$work/coord.err" &
coord_pid=$!

up=0
for _ in $(seq 100); do
  if curl -fsS "http://$addr/dist/v1/progress" >/dev/null 2>&1; then up=1; break; fi
  kill -0 "$coord_pid" 2>/dev/null || break
  sleep 0.1
done
[ "$up" = 1 ] || {
  echo "check_dist: coordinator never came up" >&2; cat "$work/coord.err" >&2; exit 1; }

for i in 1 2 3; do
  "$coord_bin" -worker -coord "http://$addr" -id "w$i" >"$work/w$i.out" 2>&1 &
  workers+=($!)
done

sleep "$kill_after"
kill -9 "${workers[1]}" 2>/dev/null
# A worker the kill reached exits by SIGKILL (status 128+9); one that had
# already finished its leases reports its own exit status.
wait "${workers[1]}" 2>/dev/null
if [ $? -eq 137 ]; then
  echo "check_dist: kill -9 hit live worker w2 (pid ${workers[1]}) mid-run"
else
  echo "check_dist: kill -9 missed: worker w2 (pid ${workers[1]}) had already exited, so no lease of its was re-issued"
fi

# Liveness while the run heals: /metrics must keep serving the dist
# families (values are timing-dependent, presence is not).
curl -fsS "http://$addr/metrics" 2>/dev/null | grep -q '^dist_ranges_total' || {
  # The run may already be complete and the coordinator gone — only an
  # error if it is still alive and not answering.
  if kill -0 "$coord_pid" 2>/dev/null; then
    echo "check_dist: /metrics stopped serving dist families mid-run" >&2; exit 1
  fi
}

wait "$coord_pid" || {
  echo "check_dist: coordinator exited non-zero" >&2; cat "$work/coord.err" >&2; exit 1; }
got=$(grep '^digest:' "$work/coord.out") || {
  echo "check_dist: coordinator printed no digest" >&2; cat "$work/coord.out" >&2; exit 1; }
echo "check_dist: cluster   $got"

# Surviving workers exit on their own once the coordinator reports the
# run complete (410); the dead one is already gone.
wait "${workers[0]}" 2>/dev/null
wait "${workers[2]}" 2>/dev/null

if [ "$got" != "$ref" ]; then
  echo "check_dist: DIGEST MISMATCH — the re-issued lease dropped or duplicated bicliques" >&2
  echo "  reference: $ref" >&2
  echo "  cluster:   $got" >&2
  exit 1
fi
echo "check_dist: digests identical — 3-worker cluster with a kill -9 lost nothing"
