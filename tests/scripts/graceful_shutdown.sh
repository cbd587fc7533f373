#!/bin/sh
# Graceful shutdown: SIGINT/SIGTERM a `vbatt schedule` run (app-level and
# --vm-level) and a vbatt_svc session; each must flush partial results and
# exit with the interrupted exit code (40) instead of dying mid-write.
#
# Each signal lands at a point the script controls, never after a sleep,
# so the outcome does not depend on how fast the host runs the workload:
#   - vbatt schedule reads its fault schedule (--chaos-csv) from a FIFO.
#     Opening the FIFO's write end returns only once the run has opened the
#     read end, after main() installed the signal handlers. The script
#     signals then and writes the (empty) schedule afterwards; the run
#     polls the flag at its first tick and stops there.
#   - vbatt_svc --stdin blocks on its command stream. The script feeds a
#     few ticks, waits until the run echoes them, signals, then sends one
#     more command; the run checks the flag before executing it.
#
# Usage: graceful_shutdown.sh <vbatt-binary> <vbatt_svc-binary>
set -u

vbatt="$1"
vbatt_svc="$2"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
fail() {
  echo "FAIL: $1" >&2
  exit 1
}

check_interrupted() {
  label="$1"
  status="$2"
  [ "$status" -eq 40 ] || {
    cat "$tmpdir/$label.err" >&2
    fail "$label: expected exit 40 after $sig, got $status"
  }
  grep -q "interrupted by signal" "$tmpdir/$label.err" ||
    fail "$label: stderr lacks the interruption notice"
  [ -s "$tmpdir/$label.out" ] ||
    fail "$label: no partial results flushed to stdout"
}

# interrupt_cli <label> [extra vbatt schedule flags...]
interrupt_cli() {
  label="$1_$sig"
  shift
  fifo="$tmpdir/$label.csv"
  mkfifo "$fifo"
  "$vbatt" schedule --days=30 --solar=10 --wind=10 --policy=mip "$@" \
    --chaos-csv="$fifo" >"$tmpdir/$label.out" 2>"$tmpdir/$label.err" &
  pid=$!
  exec 3>"$fifo"  # returns once the run has opened the schedule
  kill -s "$sig" "$pid" || fail "$label: run exited before the signal"
  echo "kind,start,end,site,peer,alpha,sigma,count" >&3
  exec 3>&-
  wait "$pid"
  check_interrupted "$label" $?
}

interrupt_svc() {
  label="svc_$sig"
  fifo="$tmpdir/$label.in"
  mkfifo "$fifo"
  "$vbatt_svc" --stdin --days=2 --policy=mip \
    <"$fifo" >"$tmpdir/$label.out" 2>"$tmpdir/$label.err" &
  pid=$!
  exec 3>"$fifo"
  echo "tick 4" >&3
  # The echo is flushed before the run reads its next command, so once it
  # shows up the run is waiting on the stream, not racing the signal.
  polls=0
  until grep -q '^tick=' "$tmpdir/$label.out"; do
    polls=$((polls + 1))
    [ "$polls" -le 600 ] || fail "$label never acknowledged its ticks"
    sleep 0.1
  done
  kill -s "$sig" "$pid" || fail "$label: run exited before the signal"
  echo "status" >&3
  exec 3>&-
  wait "$pid"
  check_interrupted "$label" $?
}

for sig in INT TERM; do
  interrupt_cli cli
  interrupt_cli cli_vm --vm-level
  interrupt_svc
done

echo "OK: graceful shutdown verified for vbatt, vbatt --vm-level and" \
  "vbatt_svc (INT, TERM)"
