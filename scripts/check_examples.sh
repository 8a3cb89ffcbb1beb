#!/usr/bin/env sh
# Runs each example program given, from a temporary directory, and fails
# when any of them exits non-zero. ctest's tooling/examples passes the six
# examples that read no input, so an edit that breaks one end to end fails
# the suite. Usage:
#
#   scripts/check_examples.sh PROGRAM...
set -u

[ $# -ge 1 ] || { echo "usage: check_examples.sh PROGRAM..." >&2; exit 2; }
dir=$(mktemp -d) || exit 2
trap 'rm -rf "$dir"' EXIT

failed=0
for program in "$@"; do
    case "$program" in
    /*) ;;
    */*) program="$PWD/$program" ;; # it runs from $dir
    esac
    if (cd "$dir" && "$program" >"$dir/out" 2>"$dir/err"); then
        echo "ok: $(basename "$program") ($(wc -l <"$dir/out" | tr -d ' ') lines)"
    else
        echo "check_examples: $program exited $?" >&2
        sed 's/^/  stderr: /' "$dir/err" >&2
        failed=$((failed + 1))
    fi
done
[ "$failed" -eq 0 ]
