#!/usr/bin/env sh
# Pins a SPICE member's memory at O(samples per period): serves one
# fault-universe member that settles for 1000 periods on a one-worker
# `sweep_server --spp=256`, then reads the server's peak resident set
# (VmHWM) once the job is done. A member keeps only the period it observes,
# so the peak must stay under the limit however long the member settles;
# recording the whole settling trajectory costs tens of MB here.
# Usage:
#
#   scripts/check_spice_memory.sh ./build/example_sweep_server
#
# Exits 77 (skipped) where /proc/<pid>/status is not available.
set -u

server="${1:?usage: check_spice_memory.sh <sweep_server binary>}"
limit_kb=16384
job='{"job":"spice_faults","id":"mem","settle_periods":1000,"members":{"first":0,"count":1},"emit_signatures":false}'

dir=$(mktemp -d) || exit 1
pid=""
cleanup() {
    exec 3>&-
    [ -n "$pid" ] && kill "$pid" 2>/dev/null
    rm -rf "$dir"
}
trap cleanup EXIT
fail() {
    echo "check_spice_memory: $*" >&2
    [ -s "$dir/err" ] && sed 's/^/  server stderr: /' "$dir/err" >&2
    exit 1
}

mkfifo "$dir/in" || exit 1
"$server" --workers=1 --spp=256 <"$dir/in" >"$dir/out" 2>"$dir/err" &
pid=$!
exec 3>"$dir/in" # the server's stdin stays open until quit
if [ ! -r "/proc/$pid/status" ]; then
    echo "check_spice_memory: no /proc/$pid/status here; skipped"
    exit 77
fi
printf '%s\n' "$job" >&3

waited=0
until grep -q '"event":"job_done"' "$dir/out"; do
    grep -q '"event":"error"' "$dir/out" && fail "job failed: $(cat "$dir/out")"
    kill -0 "$pid" 2>/dev/null || fail "server exited before job_done"
    waited=$((waited + 1))
    [ "$waited" -le 1200 ] || fail "no job_done within 120 s"
    sleep 0.1
done
grep -q '"ndf":null' "$dir/out" &&
    fail "member 0 has no solution, so it measures nothing: $(cat "$dir/out")"
peak_kb=$(awk '/^VmHWM:/ { print $2 }' "/proc/$pid/status")

printf '%s\n' '{"cmd":"quit"}' >&3
exec 3>&-
wait "$pid"
rc=$?
pid=""
[ "$rc" -eq 0 ] || fail "server exited $rc after quit"
[ -n "$peak_kb" ] || fail "no VmHWM in /proc status"

if [ "$peak_kb" -gt "$limit_kb" ]; then
    fail "peak RSS ${peak_kb} kB is above ${limit_kb} kB for one member at settle_periods 1000, spp 256"
fi
echo "check_spice_memory: peak RSS ${peak_kb} kB <= ${limit_kb} kB (settle_periods 1000, spp 256)"
