#!/usr/bin/env sh
# Byte-compares the result lines that two sweep_server builds stream for
# the same jobs: the check that a change moved no result bit, NaN members
# included. Usage:
#
#   scripts/compare_result_lines.sh PARENT_SERVER CHANGE_SERVER [JOBS]
#
# JOBS defaults to tests/server/identity_jobs.ndjson: SPICE fault universes
# at several settle counts, exact and fast_math, an open universe with
# non-default fault values, and two behavioural grids. Each server reads
# the job file on stdin with --workers=4 --spp=8192 and exits at its end;
# it runs one job at a time and streams a job's members in ascending
# order, so the result lines come out in one order. For each side the
# script prints the number of result lines, how many of them have a null
# (NaN) ndf, and their sha256. Exits 0 when the two sides' result lines are
# byte-identical, 1 when they differ, and 2 when a server fails or reports
# an error.
set -u

usage="usage: compare_result_lines.sh PARENT_SERVER CHANGE_SERVER [JOBS]"
parent="${1:?$usage}"
change="${2:?$usage}"
root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs="${3:-$root/tests/server/identity_jobs.ndjson}"
[ -r "$jobs" ] || { echo "compare_result_lines: cannot read $jobs" >&2; exit 2; }

dir=$(mktemp -d) || exit 2
trap 'rm -rf "$dir"' EXIT

# run SIDE SERVER: serves the jobs, keeps the result lines in $dir/SIDE.
run() {
    if ! "$2" --workers=4 --spp=8192 <"$jobs" >"$dir/$1.out" 2>"$dir/$1.err"; then
        echo "compare_result_lines: $1 server $2 failed" >&2
        sed 's/^/  stderr: /' "$dir/$1.err" >&2
        exit 2
    fi
    if grep -q '"event":"error"' "$dir/$1.out"; then
        echo "compare_result_lines: $1 server reported an error:" >&2
        grep '"event":"error"' "$dir/$1.out" >&2
        exit 2
    fi
    grep '"event":"result"' "$dir/$1.out" >"$dir/$1"
    printf '%s: %s result lines, %s NaN, sha256 %s\n' "$1" \
        "$(wc -l <"$dir/$1" | tr -d ' ')" \
        "$(grep -c '"ndf":null' "$dir/$1")" \
        "$(sha256sum <"$dir/$1" | cut -d' ' -f1)"
}

run parent "$parent"
run change "$change"
if cmp -s "$dir/parent" "$dir/change"; then
    echo "result lines: byte-identical"
    exit 0
fi
echo "result lines: DIFFERENT (first differing lines below)"
diff "$dir/parent" "$dir/change" | head -n 8 | cut -c1-300
exit 1
