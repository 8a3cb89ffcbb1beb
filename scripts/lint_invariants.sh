#!/usr/bin/env sh
# Project invariant linter — greps the tree for constructions the
# architecture forbids and fails loudly on any hit. Run by CI as a
# blocking step and registered in ctest (`lint_invariants`). Usage:
#
#   scripts/lint_invariants.sh [repo-root]     # lint a tree (default: repo)
#   scripts/lint_invariants.sh --self-test     # prove each rule still fires
#
# Rules (each one backs a contract in docs/ARCHITECTURE.md):
#
#   R1  no raw std synchronisation primitives outside
#       src/common/annotated_mutex.h — every mutex/condvar goes through
#       the Clang-thread-safety-annotated wrappers, or the CI clang
#       lane's -Werror=thread-safety analysis silently loses coverage.
#       (std::once_flag/std::call_once are allowed: they carry no
#       locking discipline to annotate.)
#
#   R2  no rand()/srand() — all randomness goes through common/rng so
#       seeded runs stay reproducible bit-for-bit.
#
#   R3  no silently-swallowed exceptions: a catch body must contain code
#       or at least a comment saying why dropping the exception is
#       correct. A bare `catch (...) {}` hides real failures.
#
#   R4  every bench/bench_*.cpp that exercises a parallel, sharded, or
#       fanned-out path must carry a bit-identity gate (the string
#       "bit-identical"/"bit_identical" marking the check that compares
#       against the serial reference). Purely serial figure
#       reproductions are allowlisted below.
#
#   R5  no std::cout/std::cerr in src/ library code. The server speaks
#       NDJSON on stdout and machine-parsed diagnostics on stderr; a
#       stray stream insert from the library interleaves with (and
#       corrupts) both. Tools, benches, examples and tests own their
#       streams and are exempt.
#
#   R6  the MOSFET drain-current arithmetic is written once: in src/,
#       calls to softplus( or logistic( (outside comments; the batched
#       vecmath::softplus_batch is a different function) appear only in
#       common/math_util.* (their definitions) and spice/mosfet.* (the
#       one drain-current model, spice::NmosDrainCurrent). A kernel that
#       needs a drain current evaluates that model instead of copying the
#       EKV expressions, where bit identity could drift.
#
#   R7  the NDJSON line framing is written once: in src/, calls to
#       fd_read_line( or fd_write_line( (outside comments) appear only in
#       server/fd_io.h (their definitions), server/transport.cpp (the
#       client end, StreamTransport, and the server end's writes,
#       detail::ServedPeer) and server/wire.cpp (the request loop,
#       ServerSession::serve). A transport that needs lines derives from
#       StreamTransport instead of framing its own fd.
#
#   R8  each device is modelled once, in Device::stamp: in src/, a
#       `X::stamp_ac(` definition (outside comments) is allowed only for
#       Device (the empty default), Capacitor, Inductor and VoltageSource,
#       the devices that add a reactance or an AC drive to the Newton
#       system AC analysis linearises at. A second, small-signal copy of a
#       device's stamp is where AC and transient would drift apart.
#
#   R9  no cited document is missing: an upper-case `*.md` name cited in
#       any file under src/, bench/, examples/, tests/ or scripts/ (a bare
#       README.md, a docs/PROTOCOL.md path) must exist at the repo root or
#       under docs/. A pointer to a document nobody wrote explains nothing;
#       state the fact where it is cited instead.
set -u

self_test=0
root=""
for arg in "$@"; do
    case "$arg" in
    --self-test) self_test=1 ;;
    *) root="$arg" ;;
    esac
done
if [ -z "$root" ]; then
    root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
fi

# Benches with no parallel/sharded path: straight serial figure and
# ablation reproductions, nothing to compare against a serial reference.
BIT_IDENTITY_ALLOWLIST="bench_ablation_capture.cpp
bench_ablation_linear_vs_nonlinear.cpp
bench_fig1_lissajous.cpp
bench_fig3_layout_area.cpp
bench_fig6_zone_map.cpp
bench_fig7_chronogram.cpp
bench_fig8_ndf_sweep.cpp"

failures=0

fail() {
    echo "lint_invariants: $1" >&2
    failures=$((failures + 1))
}

# Every C++ source/header under the lintable trees (NUL-safe enough for
# this repo: no spaces in tracked paths; enforced by the find itself).
cxx_files() {
    for d in src tests bench examples; do
        [ -d "$root/$d" ] && find "$root/$d" -type f \
            \( -name '*.cpp' -o -name '*.h' \)
    done
}

run_lint() {
    # R1: raw synchronisation primitives.
    r1_pattern='std::(mutex|condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|shared_mutex|shared_lock|recursive_mutex|timed_mutex)[^[:alnum:]_]'
    r1_hits=$(cxx_files | grep -v 'common/annotated_mutex\.h$' |
        xargs -r grep -nE "$r1_pattern" /dev/null 2>/dev/null || true)
    if [ -n "$r1_hits" ]; then
        printf '%s\n' "$r1_hits" >&2
        fail "raw std synchronisation primitive outside common/annotated_mutex.h — use xysig::Mutex/CondVar/MutexLock (R1)"
    fi

    # R2: libc rand()/srand().
    r2_hits=$(cxx_files | xargs -r grep -nE \
        '(^|[^[:alnum:]_:])s?rand[[:space:]]*\(' /dev/null 2>/dev/null || true)
    if [ -n "$r2_hits" ]; then
        printf '%s\n' "$r2_hits" >&2
        fail "rand()/srand() call — all randomness goes through common/rng (R2)"
    fi

    # R3: catch blocks whose {...} body is pure whitespace (no code, no
    # comment). awk joins the body across lines before testing it.
    r3_hits=$(cxx_files | xargs -r awk '
        /catch[[:space:]]*\(/ {
            line = $0
            # Only bodies opening on the catch line are considered; the
            # project brace style guarantees that.
            if (match(line, /catch[[:space:]]*\([^)]*\)[[:space:]]*\{/)) {
                body = substr(line, RSTART + RLENGTH)
                start = FNR
                depth = 1
                while (depth > 0) {
                    n = length(body)
                    for (i = 1; i <= n; ++i) {
                        c = substr(body, i, 1)
                        if (c == "{") depth++
                        else if (c == "}") { depth--; if (depth == 0) break }
                    }
                    if (depth == 0) { body = substr(body, 1, i - 1); break }
                    if ((getline nxt) <= 0) break
                    body = body "\n" nxt
                }
                gsub(/[[:space:]\n]/, "", body)
                if (body == "")
                    printf "%s:%d: empty catch body\n", FILENAME, start
            }
        }' /dev/null 2>/dev/null || true)
    if [ -n "$r3_hits" ]; then
        printf '%s\n' "$r3_hits" >&2
        fail "catch block silently swallows the exception — handle it or comment why dropping it is correct (R3)"
    fi

    # R5: no std::cout/std::cerr in library code (src/ only).
    if [ -d "$root/src" ]; then
        r5_hits=$(find "$root/src" -type f \( -name '*.cpp' -o -name '*.h' \) |
            xargs -r grep -nE 'std::c(out|err)([^[:alnum:]_]|$)' /dev/null 2>/dev/null || true)
        if [ -n "$r5_hits" ]; then
            printf '%s\n' "$r5_hits" >&2
            fail "std::cout/std::cerr in src/ library code — stdout is NDJSON-only; emit through the structured wire/report paths (R5)"
        fi
    fi

    # R6: softplus/logistic calls outside the drain-current model. awk
    # drops // comments before matching; identifiers that merely start
    # with the names (softplus_batch) do not match.
    if [ -d "$root/src" ]; then
        r6_hits=$(find "$root/src" -type f \( -name '*.cpp' -o -name '*.h' \) |
            grep -vE '/src/(common/math_util|spice/mosfet)\.(h|cpp)$' |
            xargs -r awk '{
                code = $0
                sub(/\/\/.*/, "", code)
                if (code ~ /(^|[^[:alnum:]_])(softplus|logistic)[[:space:]]*\(/)
                    printf "%s:%d: %s\n", FILENAME, FNR, $0
            }' /dev/null 2>/dev/null || true)
        if [ -n "$r6_hits" ]; then
            printf '%s\n' "$r6_hits" >&2
            fail "softplus()/logistic() call outside common/math_util and spice/mosfet — evaluate spice::NmosDrainCurrent instead of copying the drain-current arithmetic (R6)"
        fi
    fi

    # R7: line-framing calls outside the two peer bodies and the request
    # loop; awk drops // comments before matching.
    if [ -d "$root/src" ]; then
        r7_hits=$(find "$root/src" -type f \( -name '*.cpp' -o -name '*.h' \) |
            grep -vE '/src/server/(fd_io\.h|transport\.cpp|wire\.cpp)$' |
            xargs -r awk '{
                code = $0
                sub(/\/\/.*/, "", code)
                if (code ~ /(^|[^[:alnum:]_])fd_(read|write)_line[[:space:]]*\(/)
                    printf "%s:%d: %s\n", FILENAME, FNR, $0
            }' /dev/null 2>/dev/null || true)
        if [ -n "$r7_hits" ]; then
            printf '%s\n' "$r7_hits" >&2
            fail "fd_read_line()/fd_write_line() call outside server/fd_io.h, server/transport.cpp and server/wire.cpp — derive from StreamTransport instead of framing an fd again (R7)"
        fi
    fi

    # R8: stamp_ac definitions outside the four devices that add to the
    # linearised stamp; awk drops // comments before matching.
    if [ -d "$root/src" ]; then
        r8_hits=$(find "$root/src" -type f \( -name '*.cpp' -o -name '*.h' \) |
            xargs -r awk '{
                code = $0
                sub(/\/\/.*/, "", code)
                if (match(code, /[[:alnum:]_]+[[:space:]]*::[[:space:]]*stamp_ac[[:space:]]*\(/)) {
                    cls = substr(code, RSTART, RLENGTH)
                    sub(/[[:space:]]*::.*/, "", cls)
                    if (cls != "Device" && cls != "Capacitor" && cls != "Inductor" &&
                        cls != "VoltageSource")
                        printf "%s:%d: %s\n", FILENAME, FNR, $0
                }
            }' /dev/null 2>/dev/null || true)
        if [ -n "$r8_hits" ]; then
            printf '%s\n' "$r8_hits" >&2
            fail "stamp_ac defined outside Device, Capacitor, Inductor and VoltageSource — AC linearises Device::stamp at the operating point; add only a reactance or an AC drive (R8)"
        fi
    fi

    # R9: cited documents exist. awk finds each [[:alnum:]_]+.md word and
    # keeps the upper-case names; lower-case ones are placeholders.
    r9_hits=$(for d in src bench examples tests scripts; do
            [ -d "$root/$d" ] && find "$root/$d" -type f
        done | xargs -r awk -v root="$root" '{
            line = $0
            while (match(line, /[[:alnum:]_]+\.md/)) {
                name = substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
                if (line ~ /^[[:alnum:]_]/ || name !~ /^[A-Z][A-Z0-9_]*\.md$/)
                    continue
                if (system("test -e \"" root "/" name "\" || test -e \"" root "/docs/" name "\"") != 0)
                    printf "%s:%d: cites %s\n", FILENAME, FNR, name
            }
        }' /dev/null 2>/dev/null || true)
    if [ -n "$r9_hits" ]; then
        printf '%s\n' "$r9_hits" >&2
        fail "cited document missing from the repo root and docs/ — state the fact where it is cited (R9)"
    fi

    # R4: bench bit-identity gates.
    if [ -d "$root/bench" ]; then
        for bench in "$root"/bench/bench_*.cpp; do
            [ -e "$bench" ] || continue
            base=$(basename "$bench")
            if printf '%s\n' "$BIT_IDENTITY_ALLOWLIST" |
                grep -qx "$base"; then
                continue
            fi
            if ! grep -qiE 'bit[-_ ]identical' "$bench"; then
                fail "$base has no bit-identity gate marker — compare against the serial reference or allowlist it with a reason (R4)"
            fi
        done
    fi
}

run_self_test() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT

    check_fires() {
        # $1 = rule name; the staged tree in $tmp must FAIL the lint.
        if "$0" "$tmp" >/dev/null 2>&1; then
            echo "lint_invariants --self-test: rule $1 did NOT fire" >&2
            exit 1
        fi
        echo "self-test: rule $1 fires"
    }

    stage() { # fresh minimal tree
        rm -rf "$tmp/src" "$tmp/bench" "$tmp/scripts" "$tmp/docs" "$tmp/README.md"
        mkdir -p "$tmp/src" "$tmp/bench"
    }

    # R1: raw mutex.
    stage
    printf '#include <mutex>\nstd::mutex m;\n' >"$tmp/src/bad.cpp"
    check_fires R1

    # R1 must also catch the lock types, not just the mutex.
    stage
    printf 'void f() { std::lock_guard<std::mutex> g(m); }\n' \
        >"$tmp/src/bad.cpp"
    check_fires R1-lock_guard

    # R2: libc rand.
    stage
    printf 'int noise() { return rand(); }\n' >"$tmp/src/bad.cpp"
    check_fires R2

    # R2: srand too.
    stage
    printf 'void seed() { srand(42); }\n' >"$tmp/src/bad.cpp"
    check_fires R2-srand

    # R3: empty catch body, single-line and multi-line forms.
    stage
    printf 'void f() { try { g(); } catch (...) {} }\n' >"$tmp/src/bad.cpp"
    check_fires R3
    stage
    printf 'void f() {\n  try { g(); } catch (const E&) {\n\n  }\n}\n' \
        >"$tmp/src/bad.cpp"
    check_fires R3-multiline

    # R4: bench without a bit-identity marker.
    stage
    printf 'int main() { return 0; }\n' >"$tmp/bench/bench_widget.cpp"
    check_fires R4

    # R5: stream insert in library code.
    stage
    printf '#include <iostream>\nvoid log_hit() { std::cout << "hit"; }\n' \
        >"$tmp/src/bad.cpp"
    check_fires R5
    stage
    printf '#include <iostream>\nvoid warn() { std::cerr << "boom"; }\n' \
        >"$tmp/src/bad.cpp"
    check_fires R5-cerr

    # R6: the EKV softplus copied into a kernel, and a logistic anywhere
    # else in src/.
    stage
    mkdir -p "$tmp/src/kernels"
    printf 'double leg(double u) {\n    return softplus(0.5 * u);\n}\n' \
        >"$tmp/src/kernels/bad.cpp"
    check_fires R6
    stage
    printf 'double slope(double u) { return u * logistic (u); }\n' \
        >"$tmp/src/bad.h"
    check_fires R6-logistic

    # R7: a transport framing its own fd, by read or by write.
    stage
    mkdir -p "$tmp/src/server"
    printf 'bool PipeTransport::send_line(const std::string& l) {\n    return detail::fd_write_line(fd_, l);\n}\n' \
        >"$tmp/src/server/pipe_transport.cpp"
    check_fires R7
    stage
    mkdir -p "$tmp/src/server"
    printf 'auto s = detail::fd_read_line (fd_, buffer_, out, 1.0);\n' \
        >"$tmp/src/server/pipe_transport.cpp"
    check_fires R7-read

    # R8: a second small-signal model of a nonlinear and of a linear device.
    stage
    mkdir -p "$tmp/src/spice"
    printf 'void Mosfet::stamp_ac(AcStampContext& ctx) const {\n    ctx.mna->conductance(d, s, {gds, 0.0});\n}\n' \
        >"$tmp/src/spice/mosfet.cpp"
    check_fires R8
    stage
    mkdir -p "$tmp/src/spice"
    printf 'void Resistor::stamp_ac (AcStampContext& ctx) const {}\n' \
        >"$tmp/src/spice/elements.cpp"
    check_fires R8-linear

    # R9: a source and a script citing a document that does not exist.
    # The name is assembled so that this file cites no missing document.
    stage
    printf '/// calibrated as %s.md explains\n' NOPE >"$tmp/src/bad.h"
    check_fires R9
    stage
    mkdir -p "$tmp/scripts"
    printf '# usage: see docs/%s.md\n' NOPE >"$tmp/scripts/run.sh"
    check_fires R9-scripts

    # Clean tree passes: comment-only catch, annotated mutex, marked and
    # allowlisted benches, identifiers merely ending in "rand", softplus
    # calls in the drain-current model, the batched kernel and comments,
    # line framing in the peer bodies, the request loop and comments, the
    # four allowed stamp_ac definitions, calls and comments, and citations
    # of documents at the root and under docs/ (lower-case names are
    # placeholders, not citations).
    stage
    mkdir -p "$tmp/src/common" "$tmp/src/spice" "$tmp/src/kernels" \
        "$tmp/src/server"
    printf 'bool StreamTransport::send_line(const std::string& l) {\n    return detail::fd_write_line(fd_, l);\n}\n' \
        >"$tmp/src/server/transport.cpp" # R7 exempt by path
    printf 'void ServerSession::serve(int fd) { fd_read_line(fd, b, l, 0.0); }\n' \
        >"$tmp/src/server/wire.cpp" # R7 exempt by path
    printf '// framed by fd_read_line(fd, buffer, out, t) in StreamTransport\n' \
        >"$tmp/src/server/fanout.cpp"
    printf 'inline double id(double u) { return softplus(u) * logistic(u); }\n' \
        >"$tmp/src/spice/mosfet.h" # R6 exempt by path
    printf 'void Device::stamp_ac(AcStampContext&) const {}\n' \
        >"$tmp/src/spice/device.cpp"
    printf 'void Capacitor::stamp_ac(A& c) const {}\nvoid Inductor::stamp_ac(A& c) const {}\nvoid VoltageSource::stamp_ac(A& c) const {}\n' \
        >"$tmp/src/spice/elements.cpp"
    printf '// Resistor::stamp_ac(ctx) is its stamp()\nvoid f() { dev->stamp_ac(ctx); }\n' \
        >"$tmp/src/spice/ac.cpp"
    printf '// softplus(u) evaluated in bulk\nvoid f() { vecmath::softplus_batch(a, b, n); }\n' \
        >"$tmp/src/kernels/kernel.cpp"
    printf 'namespace std { class mutex; }\n' \
        >"$tmp/src/common/annotated_mutex.h" # R1 exempt by path
    cat >"$tmp/src/good.cpp" <<'EOF'
void f() {
    try {
        g();
    } catch (...) {
        // Teardown path: the peer is already being destroyed.
    }
    int strand(); // identifier merely ending in the banned name
    (void)strand();
}
EOF
    # std::cout is fine outside src/ (R5 exempts benches/tools/tests).
    printf '// gate: results are bit-identical to serial\n#include <iostream>\nint main(){ std::cout << "ok\\n"; }\n' \
        >"$tmp/bench/bench_widget.cpp"
    printf 'int main(){}\n' >"$tmp/bench/bench_fig1_lissajous.cpp"
    mkdir -p "$tmp/docs" "$tmp/scripts"
    printf '# notes\n' >"$tmp/README.md"
    printf '# wire protocol\n' >"$tmp/docs/PROTOCOL.md"
    printf '// see README.md and docs/PROTOCOL.md\n' >"$tmp/src/cited.h"
    printf 'doc="${2:-docs/PROTOCOL.md}" # [protocol.md]\n' >"$tmp/scripts/check.sh"
    if ! "$0" "$tmp" >/dev/null 2>&1; then
        echo "lint_invariants --self-test: clean tree FAILED the lint" >&2
        "$0" "$tmp" >&2 || true
        exit 1
    fi
    echo "self-test: clean tree passes"
    echo "lint_invariants --self-test: all rules verified"
}

if [ "$self_test" -eq 1 ]; then
    run_self_test
    exit 0
fi

run_lint
if [ "$failures" -gt 0 ]; then
    echo "lint_invariants: $failures rule violation(s)" >&2
    exit 1
fi
echo "lint_invariants: clean"
