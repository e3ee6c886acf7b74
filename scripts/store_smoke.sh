#!/bin/sh
# store_smoke.sh — crash-resume exercise of the durable result store and
# resumable campaigns (see docs/DESIGN.md §13, docs/INVARIANTS.md
# "Durability"):
#
#   1. boot meshsortd -store DIR (race-detector build), submit a sweep
#      campaign via meshsortctl campaign submit;
#   2. SIGKILL the daemon mid-campaign — no drain, no store close; the
#      record log is left wherever the crash caught it;
#   3. restart the daemon on the same store directory and resubmit the
#      identical grid: the campaign must resume (same c-... id, skipped>0,
#      executed>0 — only the missing cells ran) and complete;
#   4. run the same campaign uninterrupted against a fresh store in a
#      second daemon, and assert both JSON and CSV exports are
#      byte-identical (cmp) across the two interruption histories.
#
# Stdlib-only, no curl/jq required. Run via `make store-smoke`.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)
DPID=""
cleanup() {
    status=$?
    [ -n "$DPID" ] && kill -KILL "$DPID" 2>/dev/null || true
    rm -rf "$TMP"
    [ "$status" -eq 0 ] && echo "store-smoke: PASS" || echo "store-smoke: FAIL (exit $status)"
}
trap cleanup EXIT

echo "store-smoke: building race-detector binaries"
$GO build -race -o "$TMP/meshsortd" ./cmd/meshsortd
$GO build -race -o "$TMP/meshsortctl" ./cmd/meshsortctl

# The grid: 8 cells chunky enough (side 24, 600 trials, race overhead)
# that SIGKILL lands mid-campaign, small enough for CI.
cat > "$TMP/grid.json" <<'EOF'
{
  "name": "store-smoke",
  "algorithms": ["snake-a", "snake-b"],
  "sides": [16, 24],
  "trials": [600],
  "workloads": ["perm", "zeroone"],
  "seed": 13
}
EOF

# start_daemon STOREDIR — boot meshsortd over STOREDIR, set DPID/ADDR.
start_daemon() {
    : > "$TMP/port"
    "$TMP/meshsortd" -addr 127.0.0.1:0 -portfile "$TMP/port" \
        -store "$1" -drain-grace 200ms -log-level warn &
    DPID=$!
    i=0
    while [ ! -s "$TMP/port" ]; do
        i=$((i + 1))
        [ "$i" -gt 200 ] && { echo "store-smoke: daemon never wrote portfile" >&2; exit 1; }
        sleep 0.1
    done
    ADDR="127.0.0.1:$(cat "$TMP/port")"
}

ctl() { "$TMP/meshsortctl" "$@" -addr "$ADDR"; }

# field NAME FILE — extract an integer field from an indented JSON body.
field() {
    sed -n 's/.*"'"$1"'": \([0-9][0-9]*\).*/\1/p' "$2" | head -n 1
}

echo "store-smoke: daemon A up, submitting campaign"
start_daemon "$TMP/storeA"
ctl campaign submit -spec "$TMP/grid.json" > "$TMP/submit.out"
CID=$(sed -n 's/.*"id": "\(c-[^"]*\)".*/\1/p' "$TMP/submit.out" | head -n 1)
[ -n "$CID" ] || { echo "store-smoke: no campaign id in submit response" >&2; cat "$TMP/submit.out" >&2; exit 1; }
TOTAL=$(field cells "$TMP/submit.out")
echo "store-smoke: campaign $CID ($TOTAL cells)"

echo "store-smoke: waiting for partial progress, then SIGKILL"
i=0
while :; do
    i=$((i + 1))
    [ "$i" -gt 600 ] && { echo "store-smoke: campaign never made progress" >&2; exit 1; }
    ctl campaign status -id "$CID" > "$TMP/status.out"
    done_cells=$(field executed "$TMP/status.out")
    if grep -q '"status": "done"' "$TMP/status.out"; then
        echo "store-smoke: campaign finished before the kill; enlarge the grid" >&2
        exit 1
    fi
    [ "${done_cells:-0}" -ge 2 ] && break
    sleep 0.05
done
kill -KILL "$DPID"
wait "$DPID" 2>/dev/null || true
DPID=""
echo "store-smoke: killed daemon A after $done_cells/$TOTAL cells"

echo "store-smoke: daemon A' on the same store; resubmission must resume"
start_daemon "$TMP/storeA"
ctl campaign submit -spec "$TMP/grid.json" -await -timeout 10m > "$TMP/resume.out"
RID=$(sed -n 's/.*"id": "\(c-[^"]*\)".*/\1/p' "$TMP/resume.out" | head -n 1)
[ "$RID" = "$CID" ] || { echo "store-smoke: resumed id $RID != $CID" >&2; exit 1; }
ctl campaign status -id "$CID" > "$TMP/final.out"
skipped=$(field skipped "$TMP/final.out")
executed=$(field executed "$TMP/final.out")
grep -q '"status": "done"' "$TMP/final.out" || {
    echo "store-smoke: resumed campaign not done" >&2; cat "$TMP/final.out" >&2; exit 1
}
[ "${skipped:-0}" -gt 0 ] || { echo "store-smoke: resume skipped nothing (skipped=$skipped)" >&2; exit 1; }
[ "${skipped:-0}" -lt "$TOTAL" ] || { echo "store-smoke: resume executed nothing (skipped=$skipped)" >&2; exit 1; }
[ $((skipped + executed)) -eq "$TOTAL" ] || {
    echo "store-smoke: skipped+executed=$((skipped + executed)) != $TOTAL" >&2; exit 1
}
echo "store-smoke: resumed with $skipped skipped / $executed executed"

ctl campaign export -id "$CID" -format json -out "$TMP/exportA.json" > /dev/null
ctl campaign export -id "$CID" -format csv -out "$TMP/exportA.csv" > /dev/null
kill -TERM "$DPID"
wait "$DPID" || { echo "store-smoke: daemon A' exited non-zero" >&2; exit 1; }
DPID=""

echo "store-smoke: daemon B on a fresh store; uninterrupted reference run"
start_daemon "$TMP/storeB"
ctl campaign submit -spec "$TMP/grid.json" -await -timeout 10m > "$TMP/ref.out"
grep -q '"status": "done"' "$TMP/ref.out" || {
    echo "store-smoke: reference campaign not done" >&2; cat "$TMP/ref.out" >&2; exit 1
}
ctl campaign export -id "$CID" -format json -out "$TMP/exportB.json" > /dev/null
ctl campaign export -id "$CID" -format csv -out "$TMP/exportB.csv" > /dev/null
kill -TERM "$DPID"
wait "$DPID" || { echo "store-smoke: daemon B exited non-zero" >&2; exit 1; }
DPID=""

echo "store-smoke: comparing exports across interruption histories"
cmp "$TMP/exportA.json" "$TMP/exportB.json" || {
    echo "store-smoke: JSON exports differ between crashed-and-resumed and uninterrupted runs" >&2
    exit 1
}
cmp "$TMP/exportA.csv" "$TMP/exportB.csv" || {
    echo "store-smoke: CSV exports differ between crashed-and-resumed and uninterrupted runs" >&2
    exit 1
}
echo "store-smoke: exports byte-identical ($(wc -c < "$TMP/exportA.json") bytes JSON)"
