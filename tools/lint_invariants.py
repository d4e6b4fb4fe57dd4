#!/usr/bin/env python3
"""Checks project invariants the compiler cannot see (docs/static_analysis.md).

Stdlib-only; runs as the `lint_invariants` ctest entry and in CI's docs
job. Checks:

  status-codes   StatusCode values are dense (0..N, no gaps — they ride
                 the wire, so renumbering breaks deployed clients) and
                 every code documented in docs/protocol.md matches the
                 enum's value.
  metrics        Every metric name registered via GetCounter/GetGauge/
                 GetHistogram is registered as exactly one kind and its
                 base name is documented in docs/observability.md.
  reactor        Reactor-owned files never block: no sleeps and no
                 blocking ReadFull/WriteFull socket helpers on the event
                 loop thread.
  includes       Header include guards follow HYPERMINE_<PATH>_H_;
                 <mutex>/<condition_variable> are included only by the
                 sanctioned wrappers (everyone else goes through
                 util/mutex.h, where the thread safety annotations live).
  suppressions   Every HM_NO_THREAD_SAFETY_ANALYSIS carries a one-line
                 justification comment.
  intrinsics     Vendor intrinsic headers (<immintrin.h> and friends) are
                 included only by src/core/simd.cc; everything else calls
                 through the core/simd.h dispatch table.

`--selftest` replays every fixture under tests/lint/fixtures/ — a known-
bad mini-tree plus an EXPECT file naming the error it must provoke — and
fails if any fixture passes clean. A linter whose checks cannot fail is
the quietest form of rot.

Exit codes: 0 clean, 1 findings (or selftest failure), 2 setup problem.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Files whose code runs on (or is driven by) the reactor thread. Blocking
# here stalls every connection at once.
REACTOR_FILES = (
    "src/net/event_loop.cc",
    "src/net/event_loop.h",
    "src/net/server.cc",
    "src/net/reactor.cc",
    "src/net/reactor.h",
    "src/net/connection.cc",
    "src/net/connection.h",
    "src/net/http.cc",
    "src/net/http.h",
    "src/net/write_queue.cc",
    "src/net/write_queue.h",
)

BLOCKING_PATTERNS = (
    (re.compile(r"\bsleep_for\s*\("), "std::this_thread::sleep_for"),
    (re.compile(r"\bsleep\s*\("), "sleep()"),
    (re.compile(r"\busleep\s*\("), "usleep()"),
    (re.compile(r"\bnanosleep\s*\("), "nanosleep()"),
    (re.compile(r"\bReadFull\s*\("), "blocking Socket::ReadFull"),
    (re.compile(r"\bWriteFull\s*\("), "blocking Socket::WriteFull"),
)

# The only files allowed to include the raw primitives: the annotated
# wrapper itself, and api/model.h for std::once_flag (call_once is a
# discipline the analysis cannot express; see the comment there).
RAW_MUTEX_ALLOWED = ("src/util/mutex.h", "src/api/model.h")

# The only file allowed to include vendor intrinsic headers: the runtime
# SIMD dispatch unit. Everyone else calls through core/simd.h's function
# table, so ISA-specific code cannot leak into portable translation units
# (and a stray -mavx flag cannot silently change codegen elsewhere).
INTRINSICS_ALLOWED = ("src/core/simd.cc",)
INTRINSIC_INCLUDE = re.compile(
    r"\s*#include\s+<((?:[a-z0-9_]*intrin|immintrin|x86intrin|arm_neon)"
    r"[a-z0-9_]*\.h)>")

METRIC_CALL = re.compile(
    r"Get(Counter|Gauge|Histogram)\s*\(\s*\"((?:[^\"\\]|\\.)+)\"")
METRIC_CALL_FMT = re.compile(
    r"Get(Counter|Gauge|Histogram)\s*\(\s*StrFormat\s*\(\s*"
    r"\"((?:[^\"\\]|\\.)+)\"")

ENUM_BLOCK = re.compile(r"enum\s+class\s+StatusCode\s*\{(.*?)\};", re.S)
ENUM_VALUE = re.compile(r"\bk([A-Za-z0-9]+)\s*=\s*(\d+)")
DOC_CODE_ROW = re.compile(r"^\|\s*`([A-Z_]+)`\s*\|\s*(\d+)\s*\|", re.M)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def strip_line_comments(text):
    return re.sub(r"//[^\n]*", "", text)


def walk_sources(root, subdirs, suffixes):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(suffixes):
                    yield os.path.join(dirpath, name)


def rel(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


def camel_to_screaming(name):
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()


def check_status_codes(root):
    errors = []
    status_h = os.path.join(root, "src/util/status.h")
    if not os.path.isfile(status_h):
        return errors
    block = ENUM_BLOCK.search(strip_line_comments(read(status_h)))
    if block is None:
        return ["status-codes: src/util/status.h has no StatusCode enum"]
    codes = {}
    for name, value in ENUM_VALUE.findall(block.group(1)):
        value = int(value)
        if value in codes.values():
            errors.append(
                f"status-codes: value {value} assigned twice (k{name})")
        codes[name] = value
    values = sorted(codes.values())
    if values != list(range(len(values))):
        errors.append(
            "status-codes: StatusCode values are not dense 0..N "
            f"(got {values}); wire stability forbids gaps and renumbering")

    protocol_md = os.path.join(root, "docs/protocol.md")
    if os.path.isfile(protocol_md):
        screaming = {camel_to_screaming(n): v for n, v in codes.items()}
        for doc_name, doc_value in DOC_CODE_ROW.findall(read(protocol_md)):
            if doc_name == "CODE":  # a table header exemplar, not a code
                continue
            if doc_name not in screaming:
                errors.append(
                    f"status-codes: docs/protocol.md documents `{doc_name}` "
                    "which is not in the StatusCode enum")
            elif screaming[doc_name] != int(doc_value):
                errors.append(
                    f"status-codes: docs/protocol.md says {doc_name} = "
                    f"{doc_value} but src/util/status.h says "
                    f"{screaming[doc_name]}")
    return errors


def check_metrics(root):
    errors = []
    doc_path = os.path.join(root, "docs/observability.md")
    doc_text = read(doc_path) if os.path.isfile(doc_path) else None
    kinds = {}  # base name -> {kind: [files]}
    for path in walk_sources(root, ("src", "tools", "bench"), (".cc", ".h")):
        text = strip_line_comments(read(path))
        for pattern in (METRIC_CALL, METRIC_CALL_FMT):
            for kind, name in pattern.findall(text):
                base = name.split("{")[0]
                if not base.startswith("hypermine_"):
                    continue  # doc snippets and test-local registries
                kinds.setdefault(base, {}).setdefault(kind, []).append(
                    rel(root, path))
    for base in sorted(kinds):
        by_kind = kinds[base]
        if len(by_kind) > 1:
            sites = ", ".join(
                f"{kind} in {'/'.join(sorted(set(files)))}"
                for kind, files in sorted(by_kind.items()))
            errors.append(
                f"metrics: {base} is registered as more than one kind "
                f"({sites}); one name, one meaning")
        if doc_text is not None and base not in doc_text:
            files = sorted(
                {f for file_list in by_kind.values() for f in file_list})
            errors.append(
                f"metrics: {base} (registered in {', '.join(files)}) is not "
                "documented in docs/observability.md")
    return errors


def check_reactor_blocking(root):
    errors = []
    for rel_path in REACTOR_FILES:
        path = os.path.join(root, rel_path)
        if not os.path.isfile(path):
            continue
        for lineno, line in enumerate(read(path).splitlines(), start=1):
            code = strip_line_comments(line)
            for pattern, label in BLOCKING_PATTERNS:
                if pattern.search(code):
                    errors.append(
                        f"reactor: {rel_path}:{lineno} calls {label} on a "
                        "reactor-owned path; the event loop must never "
                        "block")
    return errors


def check_includes(root):
    errors = []
    for path in walk_sources(root, ("src",), (".h",)):
        rel_path = rel(root, path)
        text = read(path)
        inner = rel_path[len("src/"):]
        expected = ("HYPERMINE_"
                    + re.sub(r"[/.]", "_", inner).upper() + "_")
        guard = re.search(r"#ifndef\s+(\S+)\s*\n#define\s+(\S+)", text)
        if guard is None:
            errors.append(f"includes: {rel_path} has no include guard")
        elif guard.group(1) != expected or guard.group(2) != expected:
            errors.append(
                f"includes: {rel_path} guard is {guard.group(1)}, "
                f"want {expected}")
    for path in walk_sources(root, ("src",), (".h", ".cc")):
        rel_path = rel(root, path)
        if rel_path in RAW_MUTEX_ALLOWED:
            continue
        for lineno, line in enumerate(read(path).splitlines(), start=1):
            if re.match(r"\s*#include\s+<(mutex|condition_variable)>", line):
                errors.append(
                    f"includes: {rel_path}:{lineno} includes the raw "
                    "primitive; use util/mutex.h (annotated wrappers) "
                    "instead")
    return errors


def check_suppressions(root):
    errors = []
    for path in walk_sources(root, ("src",), (".h", ".cc")):
        rel_path = rel(root, path)
        if rel_path == "src/util/thread_annotations.h":
            continue  # the definition site
        lines = read(path).splitlines()
        for lineno, line in enumerate(lines, start=1):
            if "HM_NO_THREAD_SAFETY_ANALYSIS" not in line:
                continue
            previous = lines[lineno - 2] if lineno >= 2 else ""
            if "justification:" in line or "justification:" in previous:
                continue
            errors.append(
                f"suppressions: {rel_path}:{lineno} uses "
                "HM_NO_THREAD_SAFETY_ANALYSIS without a '// justification:' "
                "comment on the same or preceding line")
    return errors


def check_intrinsics(root):
    errors = []
    for path in walk_sources(root, ("src", "tools", "bench"),
                             (".h", ".cc")):
        rel_path = rel(root, path)
        if rel_path in INTRINSICS_ALLOWED:
            continue
        for lineno, line in enumerate(read(path).splitlines(), start=1):
            match = INTRINSIC_INCLUDE.match(line)
            if match:
                errors.append(
                    f"intrinsics: {rel_path}:{lineno} includes "
                    f"<{match.group(1)}> directly; raw SIMD intrinsics live "
                    "only in src/core/simd.cc behind the dispatch table")
    return errors


CHECKS = (
    check_status_codes,
    check_metrics,
    check_reactor_blocking,
    check_includes,
    check_suppressions,
    check_intrinsics,
)


def run_checks(root):
    errors = []
    for check in CHECKS:
        errors.extend(check(root))
    return errors


def selftest():
    fixtures_dir = os.path.join(REPO_ROOT, "tests/lint/fixtures")
    if not os.path.isdir(fixtures_dir):
        print(f"lint_invariants --selftest: {fixtures_dir} missing",
              file=sys.stderr)
        return 2
    failures = 0
    cases = sorted(
        name for name in os.listdir(fixtures_dir)
        if os.path.isdir(os.path.join(fixtures_dir, name)))
    if not cases:
        print("lint_invariants --selftest: no fixtures", file=sys.stderr)
        return 2
    for case in cases:
        case_root = os.path.join(fixtures_dir, case)
        expect_path = os.path.join(case_root, "EXPECT")
        if not os.path.isfile(expect_path):
            print(f"FAIL {case}: fixture has no EXPECT file")
            failures += 1
            continue
        expected = read(expect_path).strip()
        errors = run_checks(case_root)
        if any(expected in error for error in errors):
            print(f"  ok {case}: provoked '{expected}'")
        else:
            print(f"FAIL {case}: expected an error containing '{expected}', "
                  f"got {errors or 'a clean pass'}")
            failures += 1
    if failures:
        print(f"lint_invariants --selftest: {failures}/{len(cases)} fixtures "
              "did not provoke their error", file=sys.stderr)
        return 1
    print(f"lint_invariants --selftest: {len(cases)} fixtures ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="tree to lint (default: the repo)")
    parser.add_argument("--selftest", action="store_true",
                        help="verify every known-bad fixture still fails")
    options = parser.parse_args()
    if options.selftest:
        return selftest()
    errors = run_checks(options.root)
    for error in errors:
        print(error)
    if errors:
        print(f"lint_invariants: {len(errors)} finding(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
