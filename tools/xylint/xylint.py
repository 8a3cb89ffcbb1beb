#!/usr/bin/env python3
"""xylint — AST-level determinism & numeric-exactness auditor.

The whole repo is built around *bit-identity*: the same CUT must produce
the same digital signature on every run, every thread count, every
machine. This tool makes the constructions that silently break that —
hash-order iteration, wall-clock/randomness in deterministic code, inexact
float comparison, narrowing conversions, fire-and-forget threads — lint
errors over the real AST (libclang via clang.cindex, driven by the
build's compile_commands.json) instead of bench-time flakes.

Checks
------
  D1  range-for over std::unordered_map/set/multimap/multiset in src/.
      Hash iteration order is unspecified and varies across libstdc++/
      libc++ and across runs with different allocation histories; any
      loop feeding fingerprints, wire output, or result emission must
      iterate a sorted view. Escape hatch for genuinely order-free loops:
          // xylint: order-insensitive(<why>)
  D2  wall-clock (`steady_clock`/`system_clock`/`high_resolution_clock`
      ::now), `std::random_device`, `getenv` and C time functions in
      deterministic library code. Timing/transport telemetry files are
      allowlisted below (each with a justification); a single site can
      carry
          // xylint: nondeterminism-ok(<why>)
  E1  raw ==/!= between floating-point operands. Exact comparison is
      sanctioned only where exactness is the *point* (sentinels,
      bit-identity gates) and must say so:
          // xylint: exact-compare(<why>)
  E2  implicit float/integer narrowing conversions in the
      signature-critical src/kernels + src/core paths (clang's
      -Wconversion family surfaced through the same libclang parse).
      Fix with explicit casts/typed indices, or justify:
          // xylint: narrowing-ok(<why>)
  T1  std::thread::detach() — a detached thread outlives every
      bit-identity gate and its work can land in no result. Join it (or
      use common/parallel's pool). Escape hatch:
          // xylint: detach-ok(<why>)
  A1  meta: every `// xylint: tag(why)` annotation must use a known tag
      and carry a non-empty justification; a malformed or empty one is
      itself a finding, so the escape hatches cannot rot into blanket
      waivers.

Annotations apply to findings on the same line or on the line directly
above. Exit codes: 0 clean, 1 findings, 2 tool error, 77 libclang
unavailable (mirrors scripts/check_thread_safety_lint.sh skipping).

Usage:
  xylint.py -p BUILD_DIR [--root REPO_ROOT]   lint the tree
  xylint.py --self-test                       run the known-bad/known-good corpus
  xylint.py --list-checks                     print the check table
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shlex
import shutil
import subprocess
import sys

# walk() recurses over clang ASTs; deeply chained expressions (long
# operator<< or string-concat chains) can exceed CPython's default 1000.
sys.setrecursionlimit(20000)

SKIP_EXIT = 77

# --------------------------------------------------------------------------
# Policy tables
# --------------------------------------------------------------------------

# Annotation tag -> rule it waives.
ANNOTATION_TAGS = {
    "order-insensitive": "D1",
    "nondeterminism-ok": "D2",
    "exact-compare": "E1",
    "narrowing-ok": "E2",
    "detach-ok": "T1",
}

# D2 file allowlist: repo-relative path -> justification. These are the
# serving layers' telemetry — wall-clock here feeds heartbeats, timeouts,
# backoff and queue-wait seconds, never member values, signatures, or
# orderings. Every entry must carry a why; an empty string is rejected at
# startup.
D2_FILE_ALLOWLIST = {
    "src/server/fanout.cpp": "heartbeat scheduling, inactivity timeouts and per-partition telemetry",
    "src/server/scheduler.cpp": "queue-wait telemetry (queue_seconds) on emitted events",
    "src/server/tcp_transport.cpp": "connect backoff deadlines and heartbeat pacing",
}

# Clock classes whose ::now() is nondeterministic input.
WALL_CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}

# Free C functions that read wall-clock or environment. Matched only as
# free functions (not members), so e.g. TransientResult::time() is fine.
NONDET_FREE_FUNCTIONS = {
    "getenv",
    "secure_getenv",
    "time",
    "clock",
    "clock_gettime",
    "gettimeofday",
    "timespec_get",
}

# Diagnostic options that constitute an E2 (narrowing) finding. clang
# spells members of -Wconversion differently per cause; match by prefix.
E2_OPTION_PREFIXES = (
    "-Wconversion",
    "-Wsign-conversion",
    "-Wfloat-conversion",
    "-Wshorten-64-to-32",
    "-Wimplicit-int-conversion",
    "-Wimplicit-float-conversion",
    "-Wimplicit-int-float-conversion",
    "-Wimplicit-const-int-float-conversion",
)

# Extra parse args that surface E2 through TU diagnostics.
E2_PARSE_ARGS = ["-Wconversion", "-Wsign-conversion"]

CHECK_TABLE = [
    ("D1", "range-for over unordered containers", "// xylint: order-insensitive(<why>)"),
    ("D2", "wall-clock / random_device / getenv in library code", "file allowlist or // xylint: nondeterminism-ok(<why>)"),
    ("E1", "raw ==/!= between floating-point operands", "// xylint: exact-compare(<why>)"),
    ("E2", "implicit narrowing in src/kernels + src/core", "explicit cast or // xylint: narrowing-ok(<why>)"),
    ("T1", "std::thread::detach()", "join it, or // xylint: detach-ok(<why>)"),
    ("A1", "malformed/unjustified xylint annotation", "use a known tag with a non-empty why"),
]

ANNOTATION_RE = re.compile(r"//\s*xylint:\s*([A-Za-z0-9_-]+)\s*\(([^)]*)\)")
ANNOTATION_MARK_RE = re.compile(r"//\s*xylint:")


class Finding:
    __slots__ = ("rule", "path", "line", "col", "message")

    def __init__(self, rule, path, line, col, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self, root):
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}:{self.col}: {self.rule}: {self.message}"


def fail_tool(msg):
    print(f"xylint: error: {msg}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# libclang loading (graceful skip when absent)
# --------------------------------------------------------------------------

def load_cindex():
    """Import clang.cindex and make sure libclang actually loads.

    Returns the cindex module, or exits 77 with a skip message — the
    ctest entries mirror check_thread_safety_lint.sh (SKIP_RETURN_CODE).
    """
    try:
        from clang import cindex
    except ImportError:
        print("xylint: python clang bindings (clang.cindex) not found — skipping",
              file=sys.stderr)
        sys.exit(SKIP_EXIT)

    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass

    # Bindings installed but libclang.so not on the default search path:
    # try the usual Debian/Ubuntu locations before giving up.
    candidates = sorted(
        glob.glob("/usr/lib/llvm-*/lib/libclang-*.so*")
        + glob.glob("/usr/lib/llvm-*/lib/libclang.so*")
        + glob.glob("/usr/lib/x86_64-linux-gnu/libclang-*.so*"),
        reverse=True,
    )
    for lib in candidates:
        try:
            cindex.Config.loaded = False
            cindex.Config.set_library_file(lib)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    print("xylint: clang.cindex present but no loadable libclang — skipping",
          file=sys.stderr)
    sys.exit(SKIP_EXIT)


def clang_resource_args():
    """-resource-dir for libclang's builtin headers, when clang is around.

    libclang normally locates its own builtins relative to the library;
    this is a belt-and-braces for installs where only the python binding
    knows the library path.
    """
    clang = shutil.which("clang")
    if not clang:
        return []
    try:
        out = subprocess.run([clang, "-print-resource-dir"], check=True,
                             capture_output=True, text=True).stdout.strip()
        return ["-resource-dir", out] if out else []
    except (OSError, subprocess.CalledProcessError):
        return []


# --------------------------------------------------------------------------
# Source / annotation cache
# --------------------------------------------------------------------------

class SourceCache:
    """Per-file line cache + parsed xylint annotations."""

    def __init__(self):
        self._lines = {}
        self._annotations = {}

    def lines(self, path):
        path = os.path.realpath(path)
        if path not in self._lines:
            try:
                with open(path, "r", encoding="utf-8", errors="replace") as fh:
                    self._lines[path] = fh.read().splitlines()
            except OSError:
                self._lines[path] = []
        return self._lines[path]

    def annotations(self, path):
        """{line_number: set(rule)} of well-formed annotations in `path`."""
        path = os.path.realpath(path)
        if path not in self._annotations:
            per_line = {}
            for i, text in enumerate(self.lines(path), start=1):
                for tag, why in ANNOTATION_RE.findall(text):
                    rule = ANNOTATION_TAGS.get(tag)
                    if rule and why.strip():
                        per_line.setdefault(i, set()).add(rule)
            self._annotations[path] = per_line
        return self._annotations[path]

    def annotation_errors(self, path):
        """A1 findings: unknown tags, empty whys, or unparseable markers."""
        out = []
        for i, text in enumerate(self.lines(path), start=1):
            matches = ANNOTATION_RE.findall(text)
            if ANNOTATION_MARK_RE.search(text) and not matches:
                out.append(Finding("A1", path, i, 1,
                                   "unparseable xylint annotation — use "
                                   "// xylint: <tag>(<why>)"))
                continue
            for tag, why in matches:
                if tag not in ANNOTATION_TAGS:
                    known = ", ".join(sorted(ANNOTATION_TAGS))
                    out.append(Finding("A1", path, i, 1,
                                       f"unknown xylint tag '{tag}' (known: {known})"))
                elif not why.strip():
                    out.append(Finding("A1", path, i, 1,
                                       f"xylint annotation '{tag}' has no justification "
                                       "— say why the waiver is sound"))
        return out

    def waived(self, finding):
        ann = self.annotations(finding.path)
        for line in (finding.line, finding.line - 1):
            if finding.rule in ann.get(line, set()):
                return True
        return False


# --------------------------------------------------------------------------
# AST checks
# --------------------------------------------------------------------------

class AstContext:
    def __init__(self, cindex, root, cache, scan_pred):
        self.cindex = cindex
        self.root = root
        self.cache = cache
        # scan_pred(path) -> bool: is this file inside the audited tree?
        self.scan_pred = scan_pred
        self.findings = []

    def add(self, rule, location, message):
        if location.file is None:
            return
        path = os.path.realpath(location.file.name)
        if not self.scan_pred(path):
            return
        self.findings.append(Finding(rule, path, location.line,
                                     location.column, message))


def type_is_unordered(ctx, ctype):
    t = ctype.get_canonical()
    kinds = ctx.cindex.TypeKind
    if t.kind in (kinds.LVALUEREFERENCE, kinds.RVALUEREFERENCE):
        t = t.get_pointee().get_canonical()
    spelling = t.spelling
    if spelling.startswith("const "):
        spelling = spelling[len("const "):]
    return spelling.startswith("std::unordered_")


def type_is_floating(ctx, ctype):
    kinds = ctx.cindex.TypeKind
    return ctype.get_canonical().kind in (
        kinds.FLOAT, kinds.DOUBLE, kinds.LONGDOUBLE, kinds.FLOAT128)


def binary_op_token(cursor, lhs, rhs):
    """The operator token of a BINARY_OPERATOR cursor, or None.

    libclang < 17 has no opcode accessor; the operator is the first token
    between the operands' extents. Returns (spelling, location).
    """
    lhs_end = lhs.extent.end.offset
    rhs_start = rhs.extent.start.offset
    for tok in cursor.get_tokens():
        off = tok.extent.start.offset
        if lhs_end <= off <= rhs_start and tok.spelling in ("==", "!="):
            return tok.spelling, tok.extent.start
    return None


def check_d1_range_for(ctx, cursor):
    if cursor.kind != ctx.cindex.CursorKind.CXX_FOR_RANGE_STMT:
        return
    for child in cursor.get_children():
        if not child.kind.is_expression():
            continue
        if type_is_unordered(ctx, child.type):
            ctx.add("D1", cursor.location,
                    "range-for over an unordered container — hash order is "
                    "unspecified; iterate a sorted view, or annotate "
                    "// xylint: order-insensitive(<why>) if the loop body "
                    "is genuinely order-free")
        break  # only the range initializer; the body is checked on its own


def check_d2_nondeterminism(ctx, cursor):
    kind = cursor.kind
    ck = ctx.cindex.CursorKind

    if kind == ck.DECL_REF_EXPR or kind == ck.MEMBER_REF_EXPR:
        ref = cursor.referenced
        if ref is None:
            return
        parent = ref.semantic_parent
        if ref.spelling == "now" and parent is not None and \
                parent.spelling in WALL_CLOCKS:
            ctx.add("D2", cursor.location,
                    f"wall-clock read ({parent.spelling}::now) in deterministic "
                    "library code — pass timing in, or add the file to the "
                    "timing/transport allowlist / annotate "
                    "// xylint: nondeterminism-ok(<why>)")
        elif ref.spelling in NONDET_FREE_FUNCTIONS and ref.kind == ck.FUNCTION_DECL:
            if parent is not None and parent.kind in (
                    ck.TRANSLATION_UNIT, ck.NAMESPACE) and \
                    (parent.kind == ck.TRANSLATION_UNIT or
                     parent.spelling == "std"):
                ctx.add("D2", cursor.location,
                        f"nondeterministic input ({ref.spelling}) in library "
                        "code — environment/wall-clock must not reach "
                        "deterministic paths")
    elif kind in (ck.VAR_DECL, ck.FIELD_DECL):
        if "random_device" in cursor.type.get_canonical().spelling:
            ctx.add("D2", cursor.location,
                    "std::random_device in library code — all randomness "
                    "goes through common/rng with an explicit seed")
    elif kind == ck.TYPE_REF and "random_device" in cursor.spelling:
        ctx.add("D2", cursor.location,
                "std::random_device in library code — all randomness goes "
                "through common/rng with an explicit seed")


def check_e1_float_compare(ctx, cursor):
    if cursor.kind != ctx.cindex.CursorKind.BINARY_OPERATOR:
        return
    children = list(cursor.get_children())
    if len(children) != 2:
        return
    lhs, rhs = children
    if not (type_is_floating(ctx, lhs.type) or type_is_floating(ctx, rhs.type)):
        return
    op = binary_op_token(cursor, lhs, rhs)
    if op is None:
        return
    spelling, loc = op
    ctx.add("E1", loc,
            f"raw floating-point {spelling} — if exactness is the point "
            "(sentinel, bit-identity gate), say so with "
            "// xylint: exact-compare(<why>); otherwise compare with an "
            "explicit tolerance")


def check_t1_detach(ctx, cursor):
    if cursor.kind != ctx.cindex.CursorKind.CALL_EXPR:
        return
    ref = cursor.referenced
    if ref is None or ref.spelling != "detach":
        return
    parent = ref.semantic_parent
    if parent is not None and parent.spelling in ("thread", "jthread"):
        ctx.add("T1", cursor.location,
                "std::thread::detach() — a detached thread escapes every "
                "bit-identity gate; join it (or use common/parallel)")


AST_CHECKS = [
    check_d1_range_for,
    check_d2_nondeterminism,
    check_e1_float_compare,
    check_t1_detach,
]


def walk(ctx, cursor):
    loc_file = cursor.location.file
    if loc_file is not None and not ctx.scan_pred(os.path.realpath(loc_file.name)):
        return  # prune system headers / out-of-tree subtrees entirely
    for check in AST_CHECKS:
        check(ctx, cursor)
    for child in cursor.get_children():
        walk(ctx, child)


# --------------------------------------------------------------------------
# Translation-unit driving
# --------------------------------------------------------------------------

def compile_args(entry):
    """Extract clang-digestible args from one compile_commands entry."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry["command"])
    args = []
    skip_next = False
    src = entry["file"]
    for a in argv[1:]:
        if skip_next:
            skip_next = False
            continue
        if a in ("-c", "-MD", "-MMD", "-MP"):
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip_next = True
            continue
        if a == src or os.path.basename(a) == os.path.basename(src):
            continue
        args.append(a)
    return args


def parse_tu(cindex, index, path, args, directory):
    prev = os.getcwd()
    os.chdir(directory)
    try:
        return index.parse(path, args=args)
    finally:
        os.chdir(prev)


def severe_errors(tu):
    out = []
    for d in tu.diagnostics:
        if d.severity >= d.Error:
            out.append(str(d))
    return out


def e2_findings(ctx, tu, e2_pred):
    for d in tu.diagnostics:
        if d.severity < d.Warning or d.location.file is None:
            continue
        path = os.path.realpath(d.location.file.name)
        if not e2_pred(path):
            continue
        option = d.option or ""
        if any(option.startswith(p) for p in E2_OPTION_PREFIXES):
            ctx.findings.append(Finding(
                "E2", path, d.location.line, d.location.column,
                f"implicit narrowing in a signature-critical path "
                f"({d.spelling}) [{option}] — use an explicit cast / typed "
                "width, or annotate // xylint: narrowing-ok(<why>)"))


def apply_policy(findings, cache, root):
    """Drop annotated/allowlisted findings; keep the rest, deduped+sorted."""
    kept = {}
    for f in findings:
        rel = os.path.relpath(f.path, root)
        if f.rule == "D2" and rel in D2_FILE_ALLOWLIST:
            continue
        if f.rule in ANNOTATION_TAGS.values() and cache.waived(f):
            continue
        kept[f.key()] = f
    return sorted(kept.values(), key=Finding.key)


def lint_tree(cindex, root, build_dir):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        fail_tool(f"{db_path} not found — configure with "
                  "CMAKE_EXPORT_COMPILE_COMMANDS (the root CMakeLists does "
                  "this by default)")
    with open(db_path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)

    src_root = os.path.realpath(os.path.join(root, "src"))

    def in_src(path):
        return path.startswith(src_root + os.sep)

    def e2_scope(path):
        return path.startswith(os.path.join(src_root, "kernels") + os.sep) or \
            path.startswith(os.path.join(src_root, "core") + os.sep)

    for rel, why in D2_FILE_ALLOWLIST.items():
        if not why.strip():
            fail_tool(f"D2 allowlist entry {rel} has no justification")

    index = cindex.Index.create()
    cache = SourceCache()
    ctx = AstContext(cindex, root, cache, in_src)
    resource = clang_resource_args()

    tus = 0
    for entry in entries:
        src = os.path.realpath(os.path.join(entry.get("directory", "."),
                                            entry["file"]))
        if not in_src(src):
            continue
        args = compile_args(entry) + E2_PARSE_ARGS + resource
        tu = parse_tu(cindex, index, src, args, entry.get("directory", "."))
        errors = severe_errors(tu)
        if errors:
            fail_tool("parse errors in {} — findings would be incomplete:\n  {}"
                      .format(os.path.relpath(src, root), "\n  ".join(errors)))
        walk(ctx, tu.cursor)
        e2_findings(ctx, tu, e2_scope)
        tus += 1

    if tus == 0:
        fail_tool("no src/ translation units in compile_commands.json")

    # Annotation hygiene over every source file in src/, whether or not a
    # TU touched it this run.
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in filenames:
            if name.endswith((".cpp", ".h")):
                ctx.findings.extend(
                    cache.annotation_errors(os.path.join(dirpath, name)))

    findings = apply_policy(ctx.findings, cache, root)
    for f in findings:
        print(f.render(root))
    if findings:
        print(f"xylint: {len(findings)} finding(s) across {tus} translation "
              "unit(s)", file=sys.stderr)
        return 1
    print(f"xylint: clean ({tus} translation units)")
    return 0


# --------------------------------------------------------------------------
# Self-test corpus
# --------------------------------------------------------------------------

# file -> set of rules that MUST be found (empty set: must be clean).
SELF_TEST_CASES = [
    ("d1_bad.cpp", {"D1"}),
    ("d1_good.cpp", set()),
    ("d2_bad.cpp", {"D2"}),
    ("d2_good.cpp", set()),
    ("e1_bad.cpp", {"E1"}),
    ("e1_good.cpp", set()),
    ("e2_bad.cpp", {"E2"}),
    ("e2_good.cpp", set()),
    ("t1_bad.cpp", {"T1"}),
    ("t1_good.cpp", set()),
    ("a1_bad.cpp", {"A1"}),
]


def self_test(cindex):
    corpus = os.path.join(os.path.dirname(os.path.realpath(__file__)), "corpus")
    index = cindex.Index.create()
    resource = clang_resource_args()
    failures = 0

    for name, expected in SELF_TEST_CASES:
        path = os.path.join(corpus, name)
        if not os.path.isfile(path):
            print(f"self-test: MISSING corpus file {name}", file=sys.stderr)
            failures += 1
            continue
        cache = SourceCache()
        # Corpus scope: everything in the corpus dir counts as "library
        # code", including for E2 (no kernels/core path requirement).
        pred = lambda p: p.startswith(corpus + os.sep)  # noqa: E731
        ctx = AstContext(cindex, corpus, cache, pred)
        tu = parse_tu(cindex, index,
                      path, ["-std=c++20"] + E2_PARSE_ARGS + resource, corpus)
        errors = severe_errors(tu)
        if errors:
            print(f"self-test: corpus file {name} does not parse:\n  "
                  + "\n  ".join(errors), file=sys.stderr)
            failures += 1
            continue
        walk(ctx, tu.cursor)
        e2_findings(ctx, tu, pred)
        ctx.findings.extend(cache.annotation_errors(path))
        found = {f.rule for f in apply_policy(ctx.findings, cache, corpus)}
        if found != expected:
            label = "known-bad" if expected else "known-good"
            print(f"self-test: {label} {name}: expected rules "
                  f"{sorted(expected) or 'none'}, found {sorted(found) or 'none'}",
                  file=sys.stderr)
            for f in apply_policy(ctx.findings, cache, corpus):
                print("  " + f.render(corpus), file=sys.stderr)
            failures += 1
        else:
            print(f"self-test: {name}: ok "
                  f"({', '.join(sorted(expected)) or 'clean'})")

    if failures:
        print(f"xylint --self-test: {failures} corpus case(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"xylint --self-test: all {len(SELF_TEST_CASES)} corpus cases pass")
    return 0


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build directory containing compile_commands.json")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above this file)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the known-bad/known-good corpus")
    ap.add_argument("--list-checks", action="store_true",
                    help="print the check table and exit")
    args = ap.parse_args()

    if args.list_checks:
        for rule, what, escape in CHECK_TABLE:
            print(f"{rule}  {what}\n      escape: {escape}")
        return 0

    cindex = load_cindex()
    if args.self_test:
        return self_test(cindex)

    root = os.path.realpath(
        args.root
        or os.path.join(os.path.dirname(os.path.realpath(__file__)), "..", ".."))
    build_dir = args.build_dir or os.path.join(root, "build")
    return lint_tree(cindex, root, build_dir)


if __name__ == "__main__":
    sys.exit(main())
