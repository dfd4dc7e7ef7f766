#!/usr/bin/env bash
# check_server.sh — CI end-to-end check of the mbed daemon contract
# (docs/SERVER.md): kill -9 recovery and load shedding.
#
# Usage: check_server.sh <mbed-binary> <mbe-binary> [dataset] [port]
#
# Phase 1 — crash recovery:
#   1. Record a reference digest with a direct `mbe` run of the dataset.
#   2. Start mbed, submit the dataset and an enumeration job, wait for
#      the job's first durable checkpoint, then kill -9 the daemon.
#   3. Restart mbed over the same store and wait for the job to finish.
#      Its digest must equal the direct run's — exactly-once resume, no
#      dropped or duplicated bicliques.
#   4. Stream the job's results: rewritten to `mbe cat`'s line format and
#      sorted, they must equal the sorted `mbe cat` of the direct run's
#      spool, byte for byte.
#
# Phase 2 — load shedding + telemetry:
#   5. Restart mbed with a one-job admission window, submit a slow job,
#      then a saturating burst: at least one submit must be shed with
#      429 + Retry-After (echoing the client's X-MBE-Trace) while
#      /debug/progress and job status reads keep answering 200.
#   6. Scrape /metrics mid-burst: the service families must be present
#      and parseable, and counters must be monotone across two scrapes.
#
# The daemon runs with -log-format json throughout, so the log file the
# script dumps on failure is machine-parseable structured events.
#
# A machine fast enough to finish the job before the kill lands is
# tolerated: recovery then adopts a done job and the digests must still
# match.
set -u

mbed="${1:?usage: check_server.sh <mbed-binary> <mbe-binary> [dataset] [port]}"
mbe="${2:?usage: check_server.sh <mbed-binary> <mbe-binary> [dataset] [port]}"
dataset="${3:-GH}"
port="${4:-18080}"
addr="127.0.0.1:$port"
base="http://$addr"

work=$(mktemp -d) || exit 1
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

fail() { echo "check_server: $*" >&2; exit 1; }

wait_dead() { # wait until the (disowned) daemon pid is fully gone
  local i=0
  while kill -0 "$1" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && return 1
    sleep 0.1
  done
}

# json_field <key> — pull a string/number field out of one-object JSON
# (the daemon pretty-prints, so every field sits on its own line).
json_field() {
  sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" | head -n1
}

wait_http() { # wait_http <url> <seconds>
  local url="$1" secs="$2" i=0
  while ! curl -fsS -o /dev/null "$url" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -ge $((secs * 10)) ] && return 1
    sleep 0.1
  done
}

start_daemon() { # start_daemon <extra flags...>
  "$mbed" -addr "$addr" -dir "$work/store" -ckpt-every 200ms -log-format json "$@" \
    >>"$work/mbed.log" 2>&1 &
  daemon_pid=$!
  disown "$daemon_pid" 2>/dev/null # silence bash's "Killed" notice on kill -9
  wait_http "$base/healthz" 15 || { cat "$work/mbed.log" >&2; fail "daemon never came up"; }
}

echo "check_server: reference run ($dataset, direct mbe)"
"$mbe" -d "$dataset" -t 1 -out "$work/ref.spool" >/dev/null || fail "reference run failed"
ref=$("$mbe" cat -digest "$work/ref.spool") || fail "reference spool did not verify"
echo "check_server: reference digest $ref"

# --- Phase 1: kill -9 mid-run, restart, resume ------------------------

trace_id="check-trace-$$"

start_daemon
graph_id=$(curl -fsS -X POST "$base/v1/graphs?dataset=$dataset" | json_field graph_id)
[ -n "$graph_id" ] || fail "graph submission returned no graph_id"
job_id=$(curl -fsS -X POST -H "X-MBE-Trace: $trace_id" \
  -d "{\"graph_id\":\"$graph_id\",\"threads\":1}" "$base/v1/jobs" | json_field job_id)
[ -n "$job_id" ] || fail "job submission returned no job_id"
echo "check_server: job $job_id running on graph $graph_id (trace $trace_id)"

# Wait for the first durable checkpoint so the kill lands after real
# progress, then kill -9 — no graceful anything.
ckpt="$work/store/jobs/$job_id/spool/checkpoint.json"
i=0
while [ ! -f "$ckpt" ]; do
  i=$((i + 1))
  [ "$i" -ge 300 ] && fail "no checkpoint appeared before timeout"
  sleep 0.1
done
kill -9 "$daemon_pid" || fail "could not kill daemon"
wait_dead "$daemon_pid" || fail "daemon pid lingered after kill -9"
daemon_pid=""
echo "check_server: daemon killed -9 mid-run, restarting over the same store"

start_daemon
state=""
i=0
while :; do
  status=$(curl -fsS "$base/v1/jobs/$job_id") || fail "status read failed after restart"
  state=$(printf '%s' "$status" | json_field state)
  case "$state" in
    done) break ;;
    failed | canceled) fail "job $job_id ended $state after restart: $status" ;;
  esac
  i=$((i + 1))
  [ "$i" -ge 1200 ] && fail "job $job_id still $state long after restart"
  sleep 0.1
done
got=$(printf '%s' "$status" | json_field digest)
echo "check_server: recovered digest   $got"
if [ "$got" != "$ref" ]; then
  fail "DIGEST MISMATCH — recovery dropped or duplicated bicliques
  reference: $ref
  recovered: $got"
fi
echo "check_server: digests identical — kill -9 + restart lost nothing"

# The digest above is the one the job recorded; the bytes a client reads
# come from the result stream. Each {"l":[…],"r":[…]} line becomes
# L=[…] R=[…], the -print format `mbe cat` writes.
curl -fsS "$base/v1/jobs/$job_id/results" >"$work/stream.ndjson" || fail "result stream read failed"
sed -e 's/^{"l":\[/L=[/' -e 's/\],"r":\[/] R=[/' -e 's/\]}$/]/' -e 's/,/ /g' "$work/stream.ndjson" \
  | LC_ALL=C sort >"$work/stream.txt"
"$mbe" cat "$work/ref.spool" | LC_ALL=C sort >"$work/ref.txt" || fail "reference spool did not replay"
if ! cmp -s "$work/stream.txt" "$work/ref.txt"; then
  fail "RESULT STREAM MISMATCH — the recovered job's stream differs from the reference spool
$(diff "$work/ref.txt" "$work/stream.txt" | head -n 6)"
fi
echo "check_server: result stream identical to the reference spool ($(wc -l <"$work/ref.txt") lines)"

# The trace id must have survived the crash: the restarted daemon reads
# it back from the persisted manifest, not from any in-memory state.
recovered_trace=$(printf '%s' "$status" | json_field trace_id)
[ "$recovered_trace" = "$trace_id" ] \
  || fail "trace id changed across kill -9: submitted $trace_id, recovered '$recovered_trace'"
echo "check_server: trace id $trace_id survived kill -9 recovery"
kill -9 "$daemon_pid" 2>/dev/null
wait_dead "$daemon_pid" || fail "daemon pid lingered after kill -9"
daemon_pid=""

# --- Phase 2: saturating burst sheds, reads survive -------------------

rm -rf "$work/store"
start_daemon -max-jobs 1 -t 1
graph_id=$(curl -fsS -X POST "$base/v1/graphs?dataset=$dataset" | json_field graph_id)
job_id=$(curl -fsS -X POST -d "{\"graph_id\":\"$graph_id\",\"threads\":1}" "$base/v1/jobs" | json_field job_id)
[ -n "$job_id" ] || fail "saturating job not accepted"

shed=0
for seed in 1 2 3 4 5 6 7 8; do
  code=$(curl -s -o "$work/shed.json" -w '%{http_code}' -X POST \
    -d "{\"graph_id\":\"$graph_id\",\"threads\":1,\"ordering\":\"rand\",\"seed\":$seed}" \
    "$base/v1/jobs")
  if [ "$code" = "429" ]; then
    curl -s -o /dev/null -D "$work/shed_headers" -X POST \
      -H "X-MBE-Trace: shed-trace-$$" \
      -d "{\"graph_id\":\"$graph_id\",\"threads\":1,\"ordering\":\"rand\",\"seed\":$seed}" \
      "$base/v1/jobs"
    retry_after=$(tr -d '\r' <"$work/shed_headers" | sed -n 's/^[Rr]etry-[Aa]fter: *//p')
    [ -n "$retry_after" ] || fail "429 without a Retry-After header"
    # A shed response still belongs to the client's trace.
    shed_trace=$(tr -d '\r' <"$work/shed_headers" | sed -n 's/^[Xx]-[Mm][Bb][Ee]-[Tt]race: *//p')
    [ "$shed_trace" = "shed-trace-$$" ] \
      || fail "429 did not echo X-MBE-Trace (got '$shed_trace')"
    shed=1
    break
  fi
done
[ "$shed" = "1" ] || fail "burst was never shed with 429 despite -max-jobs 1"
echo "check_server: burst shed with 429 (trace echoed), Retry-After: ${retry_after}s"

# --- Telemetry: /metrics mid-burst ------------------------------------

# The saturating job is still running and sheds just happened: every
# service family must be live, and counters must be monotone.
curl -fsS "$base/metrics" >"$work/metrics1" || fail "/metrics down while saturated"
for fam in mbed_http_requests_total mbed_http_request_seconds_bucket \
  mbed_job_queue_wait_seconds_count mbed_job_run_seconds_count \
  mbed_admission_shed_total mbed_jobs_active mbed_jobs_submitted_total; do
  grep -q "^$fam" "$work/metrics1" || fail "/metrics missing family $fam"
done
grep -q '^mbed_admission_shed_total{reason="queue_full"} [1-9]' "$work/metrics1" \
  || fail "shed counter did not record the queue_full 429s"

curl -fsS -o /dev/null "$base/v1/jobs/$job_id" # traffic between scrapes
curl -fsS "$base/metrics" >"$work/metrics2" || fail "second /metrics scrape failed"
sum_requests() { # total of mbed_http_requests_total across labels
  awk '/^mbed_http_requests_total{/ { s += $NF } END { printf "%d", s }' "$1"
}
r1=$(sum_requests "$work/metrics1")
r2=$(sum_requests "$work/metrics2")
[ "$r1" -gt 0 ] || fail "mbed_http_requests_total scraped as 0"
[ "$r2" -gt "$r1" ] || fail "request counter not monotone across scrapes ($r1 -> $r2)"
echo "check_server: /metrics live mid-burst, counters monotone ($r1 -> $r2)"

# Reads must keep answering while saturated.
curl -fsS -o /dev/null "$base/debug/progress" || fail "/debug/progress down while saturated"
curl -fsS -o /dev/null "$base/v1/jobs/$job_id" || fail "status read down while saturated"
curl -fsS -o /dev/null "$base/v1/jobs" || fail "job list down while saturated"
echo "check_server: reads stayed live under saturation — all checks passed"
