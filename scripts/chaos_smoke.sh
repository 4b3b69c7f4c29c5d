#!/usr/bin/env sh
# Chaos smoke: `rsp_cli dse --workers <w>` must stay byte-identical to
# single-process `rsp_cli dse` while the worker misbehaves on a scripted
# schedule (`--fault-plan`, see docs/DISTRIBUTED.md). Each scenario runs
# the full paper-domain DSE against one worker executing a checked-in
# fault plan:
#
#   at=2:drop      the worker drops its connection on the first shard; the
#                  coordinator's link must reconnect on its next pull and
#                  finish the run (the re-admission line is asserted);
#   at=2:truncate  a reply cut mid-line, then the connection closes;
#   at=3:garbage   a non-JSON line injected before a real reply;
#   at=3:delay=40  a 40 ms stall inside the request timeout;
#   seed=7:count=2 two pseudo-random recoverable faults (deterministic:
#                  same seed, same plan, any platform);
#   at=2:refuse    an in-band {"ok": false} rejection — deliberately fatal,
#                  the run must abort with a nonzero exit.
#
# A diverging plan is appended to $CHAOS_ARTIFACT_DIR/chaos_failed_plans.txt
# (the CI artifact) before the script exits nonzero.
#
#   scripts/chaos_smoke.sh <rsp_cli binary>
set -eu

cli=$1
workdir=$(mktemp -d)
artifact_dir=${CHAOS_ARTIFACT_DIR:-$workdir}
mkdir -p "$artifact_dir"
worker_pid=
cleanup() {
  if [ -n "$worker_pid" ]; then
    kill "$worker_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# Reference: the single-process explorer over the full paper domain.
"$cli" dse > "$workdir/expect" 2> "$workdir/expect.log"

start_worker() {
  # $1 = slot name, $2 = fault plan. Ephemeral TCP port, READY <addr>.
  "$cli" worker 127.0.0.1:0 --threads 2 --fault-plan "$2" \
    > "$workdir/$1.ready" 2> "$workdir/$1.log" &
  worker_pid=$!
}

wait_ready() {
  # $1 = slot name. Echoes the resolved address from the READY line.
  i=0
  while ! grep -q "^READY " "$workdir/$1.ready" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "chaos_smoke: worker $1 never printed READY" >&2
      cat "$workdir/$1.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  awk '/^READY /{print $2; exit}' "$workdir/$1.ready"
}

fail_plan() {
  # $1 = scenario name, $2 = fault plan, $3 = message. Records the failing
  # plan for the CI artifact upload, dumps the logs and exits nonzero.
  echo "$2" >> "$artifact_dir/chaos_failed_plans.txt"
  echo "chaos_smoke: plan '$2' ($1): $3" >&2
  echo "--- coordinator log ---" >&2
  cat "$workdir/$1.coord.log" >&2 || true
  echo "--- worker log ---" >&2
  cat "$workdir/$1.log" >&2 || true
  exit 1
}

stop_worker() {
  if [ -n "$worker_pid" ]; then
    kill "$worker_pid" 2>/dev/null || true
    wait "$worker_pid" 2>/dev/null || true
  fi
  worker_pid=
}

run_recoverable() {
  # $1 = scenario name, $2 = fault plan. The run must succeed and match
  # the single-process reference byte for byte.
  start_worker "$1" "$2"
  addr=$(wait_ready "$1")
  rc=0
  "$cli" dse --workers "$addr" \
    > "$workdir/$1.got" 2> "$workdir/$1.coord.log" || rc=$?
  stop_worker
  if [ "$rc" -ne 0 ]; then
    fail_plan "$1" "$2" "dse --workers exited $rc"
  fi
  if ! cmp -s "$workdir/expect" "$workdir/$1.got"; then
    diff "$workdir/expect" "$workdir/$1.got" >&2 || true
    fail_plan "$1" "$2" "output diverges from single-process dse"
  fi
}

run_recoverable drop "at=2:drop"
# The drop scenario must have gone through a lost link AND re-admission —
# the worker process never died, so the reconnect has to win it back.
if ! grep -q "re-admitted to the run" "$workdir/drop.coord.log"; then
  fail_plan drop "at=2:drop" "coordinator never re-admitted the worker"
fi

run_recoverable truncate "at=2:truncate"
run_recoverable garbage "at=3:garbage"
run_recoverable delay "at=3:delay=40"
run_recoverable seeded "seed=7:count=2"

# An in-band refusal is deterministic misbehaviour, not a transport fault:
# the coordinator must abort instead of retrying or falling back.
start_worker refuse "at=2:refuse"
addr=$(wait_ready refuse)
rc=0
"$cli" dse --workers "$addr" \
  > "$workdir/refuse.got" 2> "$workdir/refuse.coord.log" || rc=$?
stop_worker
if [ "$rc" -eq 0 ]; then
  fail_plan refuse "at=2:refuse" "dse --workers succeeded; a refusal must abort"
fi

echo "chaos_smoke: 5 recoverable plans byte-identical to single-process" \
  "dse (worker re-admitted after at=2:drop); at=2:refuse aborted as designed"
