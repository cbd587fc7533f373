#!/bin/sh
# Kill and recover: a vbatt_svc session that dies mid-run and recovers from
# its last snapshot plus the event log must end in the same state, byte
# for byte, as a session that never died.
#
# The reference run writes a snapshot every 50 ticks. Its last snapshot
# records the sequence number S of the event that completed that tick
# (the u64 at byte 24: 8-byte magic, u32 length, u32 CRC, u64 version,
# then u64 seq). A run killed at event S dies before writing that
# snapshot, so recovery replays a whole snapshot period of log from the
# one before; a run killed at S + 1 has just written it, so recovery
# replays one event. Both must reproduce the reference --state-out.
#
# Usage: svc_kill_recover.sh <vbatt_svc-binary>
set -u

vbatt_svc="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
fail() {
  echo "FAIL: $1" >&2
  exit 1
}

run() {
  "$vbatt_svc" --days=3 --policy=mip24h --chaos=1.0 --heartbeats \
    --snapshot-every=50 "$@"
}

run --log="$tmpdir/ref.log" --snapshot="$tmpdir/ref.snap" \
  --state-out="$tmpdir/ref.state" >/dev/null ||
  fail "uninterrupted run failed"

# Little-endian u64 from the snapshot header, one byte at a time.
seq=0
shift_bits=0
for byte in $(od -An -v -tu1 -j24 -N8 "$tmpdir/ref.snap"); do
  seq=$((seq + (byte << shift_bits)))
  shift_bits=$((shift_bits + 8))
done
[ "$seq" -gt 1 ] || fail "cannot read the snapshot's sequence number"

for kill_at in "$seq" $((seq + 1)); do
  label="kill_$kill_at"
  log="$tmpdir/$label.log"
  snap="$tmpdir/$label.snap"
  run --log="$log" --snapshot="$snap" --kill-at="$kill_at" >/dev/null
  status=$?
  [ "$status" -eq 9 ] || fail "$label: expected exit 9 from --kill-at, got $status"
  run --log="$log" --snapshot="$snap" --recover \
    --state-out="$tmpdir/$label.state" >/dev/null 2>"$tmpdir/$label.err" || {
    cat "$tmpdir/$label.err" >&2
    fail "$label: recovery failed"
  }
  replayed=$(sed -n 's/.* + \([0-9]*\) replayed events/\1/p' "$tmpdir/$label.err")
  if [ "$kill_at" -eq "$seq" ]; then
    [ "${replayed:-0}" -gt 1 ] ||
      fail "$label: expected a log suffix past the older snapshot, replayed '$replayed'"
  else
    [ "${replayed:-}" = "1" ] ||
      fail "$label: expected one event past the fresh snapshot, replayed '$replayed'"
  fi
  cmp "$tmpdir/$label.state" "$tmpdir/ref.state" ||
    fail "$label: recovered state differs from the uninterrupted run"
  echo "ok $label: recovered after replaying $replayed events"
done
