#!/usr/bin/env bash
# check_resume.sh — CI end-to-end check of the durable-run contract
# (docs/DURABILITY.md): an interrupted spooled enumeration, resumed,
# yields a spool whose digest is identical to an uninterrupted run's.
#
# Usage: check_resume.sh <mbe-binary> <dataset> [threads] [kill_after_s] [algorithm]
#
# algorithm is any rooted engine (mbe -a spelling); by default AdaMBE, or
# ParAdaMBE when threads > 1.
#
#   1. Run a clean spooled enumeration to completion; record its digest
#      (`mbe cat -digest`).
#   2. Start the same run into a fresh spool with a 1s checkpoint
#      cadence, send SIGINT mid-run (what Ctrl-C does), and let the
#      partial run exit cleanly.
#   3. Resume with -resume, then compare the final digest against the
#      clean run's. Any dropped or duplicated biclique changes the
#      multiset digest and fails the check.
#
# A machine fast enough to finish before the SIGINT lands is tolerated:
# the resume is then a no-op over a complete spool, and the digests must
# still match.
set -u

usage="usage: check_resume.sh <mbe-binary> <dataset> [threads] [kill_after_s] [algorithm]"
bin="${1:?$usage}"
dataset="${2:?$usage}"
threads="${3:-4}"
kill_after="${4:-2}"
algo="${5:-}"
if [ -z "$algo" ]; then
  algo="AdaMBE"
  [ "$threads" -gt 1 ] 2>/dev/null && algo="ParAdaMBE"
fi

work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
clean="$work/clean.spool"
resumed="$work/resumed.spool"

echo "check_resume: clean spooled run ($dataset, $algo, t=$threads)"
"$bin" -d "$dataset" -a "$algo" -t "$threads" -out "$clean" || {
  echo "check_resume: clean run failed" >&2; exit 1; }
ref=$("$bin" cat -digest "$clean") || {
  echo "check_resume: clean spool did not verify" >&2; exit 1; }
echo "check_resume: reference digest $ref"

echo "check_resume: interrupted run (SIGINT after ${kill_after}s)"
"$bin" -d "$dataset" -a "$algo" -t "$threads" -out "$resumed" -ckpt-every 1s &
pid=$!
sleep "$kill_after"
# The run may already have finished on a fast machine; that is fine.
kill -INT "$pid" 2>/dev/null || true
wait "$pid" || { echo "check_resume: interrupted run exited non-zero" >&2; exit 1; }

echo "check_resume: resuming"
"$bin" -d "$dataset" -a "$algo" -t "$threads" -out "$resumed" -resume || {
  echo "check_resume: resume failed" >&2; exit 1; }

got=$("$bin" cat -digest "$resumed") || {
  echo "check_resume: resumed spool did not verify" >&2; exit 1; }
echo "check_resume: resumed digest   $got"

if [ "$got" != "$ref" ]; then
  echo "check_resume: DIGEST MISMATCH — resume dropped or duplicated bicliques" >&2
  echo "  reference: $ref" >&2
  echo "  resumed:   $got" >&2
  exit 1
fi
echo "check_resume: digests identical — interrupt+resume lost nothing"
