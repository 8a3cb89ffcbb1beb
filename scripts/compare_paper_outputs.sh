#!/usr/bin/env sh
# Byte-compares what the paper programs print in two builds: the figure-side
# twin of compare_result_lines.sh, the check that a change moved no figure,
# table or anchor. Usage:
#
#   scripts/compare_paper_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# Runs 15 programs from each build directory, inside a temporary directory:
# the six examples that read no input, and the nine figure and ablation
# benches with --benchmark_filter=NONE, which prints a bench's reproduction
# report and runs none of its timers. Every program prints the same bytes
# run to run, so any difference is the change's. For each program and side
# the script prints the line count and sha256 of its stdout. Exits 0 when
# every program's output is byte-identical, 1 when any differs, and 2 when
# a program is missing or fails.
set -u

usage="usage: compare_paper_outputs.sh PARENT_BUILD CHANGE_BUILD"
[ $# -eq 2 ] || { echo "$usage" >&2; exit 2; }
parent=$(CDPATH= cd -- "$1" && pwd) || exit 2
change=$(CDPATH= cd -- "$2" && pwd) || exit 2

examples="example_quickstart example_monitor_designer example_noise_study
example_sallen_key_cut example_spice_deck_demo example_biquad_f0_verification"
benches="bench_ablation_capture bench_ablation_linear_vs_nonlinear
bench_fig1_lissajous bench_fig3_layout_area bench_fig6_zone_map
bench_fig7_chronogram bench_fig8_ndf_sweep bench_noise_detectability
bench_table1_fig4_curves"

dir=$(mktemp -d) || exit 2
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/work" || exit 2

# run SIDE BUILD PROGRAM [ARG]: keeps PROGRAM's stdout in $dir/SIDE and
# prints its line count and sha256.
run() {
    side=$1
    bin="$2/$3"
    if [ ! -x "$bin" ]; then
        echo "compare_paper_outputs: $bin is missing" >&2
        exit 2
    fi
    shift 3
    if ! (cd "$dir/work" && "$bin" "$@" >"$dir/$side" 2>"$dir/$side.err"); then
        echo "compare_paper_outputs: $bin failed" >&2
        sed 's/^/  stderr: /' "$dir/$side.err" >&2
        exit 2
    fi
    printf '  %s: %s lines, sha256 %s\n' "$side" \
        "$(wc -l <"$dir/$side" | tr -d ' ')" \
        "$(sha256sum <"$dir/$side" | cut -d' ' -f1)"
}

differ=0
# compare PROGRAM [ARG]: runs PROGRAM from both builds and compares stdout.
compare() {
    echo "$1"
    run parent "$parent" "$@"
    run change "$change" "$@"
    if cmp -s "$dir/parent" "$dir/change"; then
        echo "  byte-identical"
    else
        echo "  DIFFERENT (first differing lines below)"
        diff "$dir/parent" "$dir/change" | head -n 8 | cut -c1-300
        differ=$((differ + 1))
    fi
}

for p in $examples; do
    compare "$p"
done
for p in $benches; do
    compare "$p" --benchmark_filter=NONE
done

if [ "$differ" -eq 0 ]; then
    echo "paper outputs: all 15 byte-identical"
    exit 0
fi
echo "paper outputs: $differ of 15 DIFFERENT"
exit 1
