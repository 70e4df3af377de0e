#!/usr/bin/env python3
"""Repo-specific lint rules no generic tool knows about.

Run from anywhere: paths are resolved relative to the repository root
(the parent of this script's directory). Exits non-zero with one line
per violation, so it can run as a ctest (see tools/lint_test.cmake).

Rules:
  R1  No rand()/srand()/std::random_device outside src/numeric/rng.*.
      The reproduction is deterministic by construction; every draw must
      flow through the seeded wcnn::numeric::Rng. This extends to
      parallel code (src/core/parallel.hh): a task running on a worker
      thread must obtain any task-local generator via
      Rng::stream(config_seed, task_index) — a pure function of the
      config seed and the task index — never from wall clock, thread
      id, or a generator shared across tasks, so results stay
      bit-identical at every thread count.
  R2  No naked assert( in src/ — contracts go through the WCNN_* macros
      in src/core/contracts.hh so failures carry context and are
      testable. static_assert is fine.
  R3  No float type or f-suffixed literals in the standardizer/metrics
      paths (src/data/standardizer.*, src/data/metrics.*,
      src/numeric/stats.*). The paper's error statistics are defined on
      doubles; a stray float silently halves the precision of Table 2.
  R4  Every .cc/.cpp under src/, tests/, bench/, tools/, and examples/
      must be listed in its directory's CMakeLists.txt — an unlisted file compiles in
      nobody's build and rots.
  R5  No raw std::chrono::steady_clock/system_clock/
      high_resolution_clock ::now() outside src/core/telemetry. The
      telemetry layer is the one sanctioned clock: time a stage with
      WCNN_SPAN, or with telemetry::nowNs()/timedSeconds() when a
      number is needed in-process. Ad-hoc stopwatches fragment the
      trace and invite nondeterminism in places rule R1 protects.
  R6  No catch (...) that swallows the exception. A catch-all body must
      either rethrow (throw; / std::rethrow_exception) or capture via
      std::current_exception() for deferred propagation — or convert
      the failure into a wcnn::Error / recorded status. Silently eaten
      failures defeat the typed error taxonomy (src/core/error.hh) and
      hide chaos-injected faults from the quarantine bookkeeping.
  R7  No POSIX socket headers or socket syscalls outside
      src/serve/net/ — and no epoll/eventfd either. All transport goes
      through TcpStream/TcpListener (and ServeClient above them), all
      event multiplexing through the Reactor: one place owns fd
      lifetimes, EINTR/EOF handling, and timeouts, and the serve
      failpoint sites actually cover every byte on the wire. A stray
      recv() or epoll_wait() elsewhere is invisible to the chaos
      harness.
  R8  Hand-rolled compute kernels live in src/numeric/kernels/ only.
      Outside that directory, no SIMD intrinsics (<immintrin.h> and
      friends, _mm*/__m128-style identifiers), no `#pragma omp`, and —
      within src/ — no raw contraction loops (an `x(i,k) * y(k,j)`
      element product with a shared middle index). Matrix products go
      through numeric::Matrix / kernels::gemm so every hot loop is one
      the kernel equivalence test (tests/kernel_equivalence_test.cc)
      checks bit for bit against its oracle; a stray hand matmul
      elsewhere is checked by nothing.
  R9  Scenario files are parsed only via scenario::parse /
      scenario::loadFile. Outside src/scenario/, no include of the
      private lexer header and no code that opens a .wcnn path
      directly (ifstream/fopen/open on a "*.wcnn" literal). The
      parser is the layer's totality guarantee — any byte stream
      yields a Document or a typed ScenarioError — and the fuzz
      corpus only covers text that flows through it; a side-channel
      reader would dodge the diagnostics, the failpoints, and the
      canonical printer.
  R10 The lifecycle subsystem reads no clock. Under src/lifecycle/ no
      value-returning time source is allowed — telemetry::nowNs() /
      timedSeconds(), any ::now(), sleep_for/sleep_until — because
      drift, retrain, shadow and promotion decisions are defined as
      pure functions of (record stream, seed): a replayed journal must
      reproduce the live run bit for bit on any host, at any speed.
      WCNN_SPAN is exempt: its timing flows to the telemetry trace
      only, never into a decision. The subsystem is also an
      encapsulation boundary: `#include "lifecycle/..."` is allowed
      only inside src/lifecycle/ itself and in the driver layers
      (tools/, tests/, bench/) — core libraries must not grow a
      dependency on the control loop above them.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Lines matching these are exempt from the content rules.
COMMENT_RE = re.compile(r"^\s*(//|\*|/\*)")

RAND_RE = re.compile(r"\b(?:std::)?(?:rand|srand)\s*\(|std::random_device")
ASSERT_RE = re.compile(r"(?<![_a-zA-Z])assert\s*\(")
FLOAT_RE = re.compile(r"(?<![_a-zA-Z])float(?![_a-zA-Z])"
                      r"|\b\d+\.\d*f\b|\b\d+\.?\d*[eE][-+]?\d+f\b")

CLOCK_RE = re.compile(
    r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)"
    r"\s*::\s*now\s*\(")

CATCH_ALL_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
RETHROW_RE = re.compile(
    r"\bthrow\b|std::current_exception|std::rethrow_exception"
    r"|\bwcnn::Error\b")

SOCKET_HEADER_RE = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|netinet/[\w./]+|arpa/inet\.h"
    r"|netdb\.h|sys/un\.h|sys/epoll\.h|sys/eventfd\.h)>")
# Bare POSIX socket / event-multiplexing calls. The lookbehind drops
# member calls (x.accept(, p->listen() and qualified names;
# bind/connect are deliberately not listed (std::bind,
# TcpStream::connect). epoll/eventfd ride along: event readiness is
# the Reactor's job, and the Reactor lives in src/serve/net/.
SOCKET_CALL_RE = re.compile(
    r"(?<![\w:.>])(?:socket|accept4?|listen|recv|recvfrom|send|sendto"
    r"|setsockopt|getsockname|inet_pton|inet_ntop"
    r"|epoll_create1?|epoll_ctl|epoll_wait|eventfd)\s*\(")

INTRINSIC_RE = re.compile(
    r"#\s*include\s*<(?:[a-z]+mmintrin|immintrin|avx\w*intrin)\.h>"
    r"|\b_mm(?:256|512)?_\w+|\b__m(?:64|128|256|512)[di]?\b")
PRAGMA_OMP_RE = re.compile(r"#\s*pragma\s+omp\b")
# An element product whose left factor's column index is the right
# factor's row index — the signature of a hand-rolled contraction,
# e.g. `a(i, k) * b(k, j)`. Row-dot products like `l(i, k) * l(j, k)`
# share their SECOND index and deliberately do not match.
CONTRACTION_RE = re.compile(
    r"\w+\(\s*\w+\s*,\s*(\w+)\s*\)\s*\*\s*\w+\(\s*\1\s*,")

FLOAT_SENSITIVE = [
    "src/data/standardizer.hh",
    "src/data/standardizer.cc",
    "src/data/metrics.hh",
    "src/data/metrics.cc",
    "src/numeric/stats.hh",
    "src/numeric/stats.cc",
]


def iter_sources(subdirs: list[str]) -> list[Path]:
    out: list[Path] = []
    for sub in subdirs:
        root = REPO / sub
        if root.is_dir():
            for pat in ("*.cc", "*.cpp", "*.hh"):
                out.extend(sorted(root.rglob(pat)))
    return out


def code_lines(path: Path):
    """Yield (lineno, line) skipping obvious comment lines."""
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if COMMENT_RE.match(line):
            continue
        yield lineno, line


def check_rng_containment(errors: list[str]) -> None:
    for path in iter_sources(["src", "tests", "bench", "tools", "examples"]):
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith("src/numeric/rng."):
            continue
        for lineno, line in code_lines(path):
            if RAND_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R1 nondeterministic randomness "
                    f"({line.strip()[:60]}); use numeric::Rng")


def check_no_naked_assert(errors: list[str]) -> None:
    for path in iter_sources(["src"]):
        rel = path.relative_to(REPO).as_posix()
        for lineno, line in code_lines(path):
            stripped = line.replace("static_assert", "")
            if ASSERT_RE.search(stripped):
                errors.append(
                    f"{rel}:{lineno}: R2 naked assert(); use the WCNN_* "
                    f"contract macros from core/contracts.hh")


def check_no_float_in_metrics(errors: list[str]) -> None:
    for rel in FLOAT_SENSITIVE:
        path = REPO / rel
        if not path.exists():
            continue
        for lineno, line in code_lines(path):
            if FLOAT_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R3 float in a double-precision "
                    f"metrics path ({line.strip()[:60]})")


def check_cc_listed_in_cmake(errors: list[str]) -> None:
    for sub in ["src", "tests", "bench", "tools", "examples"]:
        root = REPO / sub
        if not root.is_dir():
            continue
        for cc in sorted(list(root.rglob("*.cc")) + list(root.rglob("*.cpp"))):
            # Nearest enclosing CMakeLists.txt owns the file (e.g.
            # src/serve/net/socket.cc is listed as net/socket.cc in
            # src/serve/CMakeLists.txt).
            cml = None
            for parent in cc.parents:
                cand = parent / "CMakeLists.txt"
                if cand.exists():
                    cml = cand
                    break
                if parent == REPO:
                    break
            if cml is None:
                errors.append(
                    f"{cc.relative_to(REPO).as_posix()}: R4 no "
                    f"enclosing CMakeLists.txt")
                continue
            text = cml.read_text()
            # Accept either the file name or its stem as a whole word
            # (helpers like wcnn_bench(name) append the .cc themselves).
            listed = cc.name in text or re.search(
                rf"(?<![\w]){re.escape(cc.stem)}(?![\w])", text)
            if not listed:
                errors.append(
                    f"{cc.relative_to(REPO).as_posix()}: R4 not listed "
                    f"in {cml.relative_to(REPO).as_posix()}")


def check_clock_containment(errors: list[str]) -> None:
    for path in iter_sources(["src", "tests", "bench", "tools", "examples"]):
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith("src/core/telemetry."):
            continue
        for lineno, line in code_lines(path):
            if CLOCK_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R5 raw chrono clock "
                    f"({line.strip()[:60]}); use WCNN_SPAN or "
                    f"core::telemetry::nowNs()/timedSeconds()")


def check_no_swallowing_catch_all(errors: list[str]) -> None:
    for path in iter_sources(["src", "tests", "bench", "tools", "examples"]):
        rel = path.relative_to(REPO).as_posix()
        text = path.read_text()
        lines = text.splitlines()
        for match in CATCH_ALL_RE.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            if COMMENT_RE.match(lines[lineno - 1]):
                continue
            # Walk the catch block: from its opening brace to the
            # matching close. Good-enough brace matching — braces in
            # string literals are rare enough in this tree to ignore.
            open_brace = text.find("{", match.end())
            if open_brace == -1:
                continue
            depth = 0
            end = open_brace
            for i in range(open_brace, len(text)):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
            body = text[open_brace:end + 1]
            if not RETHROW_RE.search(body):
                errors.append(
                    f"{rel}:{lineno}: R6 catch (...) swallows the "
                    f"exception; rethrow, capture via "
                    f"std::current_exception, or convert to wcnn::Error")


def check_socket_containment(errors: list[str]) -> None:
    for path in iter_sources(["src", "tests", "bench", "tools", "examples"]):
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith("src/serve/net/"):
            continue
        for lineno, line in code_lines(path):
            if SOCKET_HEADER_RE.search(line) or SOCKET_CALL_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R7 raw socket code outside "
                    f"src/serve/net/ ({line.strip()[:60]}); go through "
                    f"serve::net::TcpStream/TcpListener/ServeClient")


def check_kernel_containment(errors: list[str]) -> None:
    for path in iter_sources(["src", "tests", "bench", "tools", "examples"]):
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith("src/numeric/kernels/"):
            continue
        in_src = rel.startswith("src/")
        for lineno, line in code_lines(path):
            if INTRINSIC_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R8 SIMD intrinsics outside "
                    f"src/numeric/kernels/ ({line.strip()[:60]})")
            elif PRAGMA_OMP_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R8 #pragma omp outside "
                    f"src/numeric/kernels/ ({line.strip()[:60]})")
            elif in_src and CONTRACTION_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R8 raw contraction loop "
                    f"({line.strip()[:60]}); route through "
                    f"numeric::Matrix / kernels::gemm")


LEXER_INCLUDE_RE = re.compile(r'#\s*include\s*"scenario/lexer\.hh"')
# A stream/FILE opened on a .wcnn literal outside the scenario layer.
WCNN_OPEN_RE = re.compile(
    r'(?:ifstream|fstream|fopen|::open)\s*\([^)]*\.wcnn')


def check_scenario_containment(errors: list[str]) -> None:
    for path in iter_sources(["src", "tests", "bench", "tools", "examples"]):
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith("src/scenario/"):
            continue
        for lineno, line in code_lines(path):
            if LEXER_INCLUDE_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R9 private scenario lexer header "
                    f"included outside src/scenario/; use "
                    f"scenario::parse")
            elif WCNN_OPEN_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R9 .wcnn file opened directly "
                    f"({line.strip()[:60]}); go through "
                    f"scenario::loadFile/loadNamed")


LIFECYCLE_CLOCK_RE = re.compile(
    r"\bnowNs\s*\(|\btimedSeconds\s*\(|::\s*now\s*\("
    r"|\bsleep_for\b|\bsleep_until\b")
LIFECYCLE_INCLUDE_RE = re.compile(r'#\s*include\s*"lifecycle/')
# Directories whose code may depend on the lifecycle subsystem.
LIFECYCLE_DRIVERS = ("src/lifecycle/", "tools/", "tests/", "bench/")


def check_lifecycle_determinism(errors: list[str]) -> None:
    for path in iter_sources(["src", "tests", "bench", "tools", "examples"]):
        rel = path.relative_to(REPO).as_posix()
        in_lifecycle = rel.startswith("src/lifecycle/")
        may_include = rel.startswith(LIFECYCLE_DRIVERS)
        for lineno, line in code_lines(path):
            if in_lifecycle and LIFECYCLE_CLOCK_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R10 wall-clock read in the "
                    f"lifecycle subsystem ({line.strip()[:60]}); "
                    f"decisions are functions of the record stream "
                    f"only")
            if not may_include and LIFECYCLE_INCLUDE_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: R10 lifecycle header included "
                    f"outside src/lifecycle/ and the driver layers "
                    f"(tools/, tests/, bench/)")


def main() -> int:
    errors: list[str] = []
    check_rng_containment(errors)
    check_no_naked_assert(errors)
    check_no_float_in_metrics(errors)
    check_cc_listed_in_cmake(errors)
    check_clock_containment(errors)
    check_no_swallowing_catch_all(errors)
    check_socket_containment(errors)
    check_kernel_containment(errors)
    check_scenario_containment(errors)
    check_lifecycle_determinism(errors)
    for e in errors:
        print(e)
    if errors:
        print(f"wcnn_lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("wcnn_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
