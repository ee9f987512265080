#!/usr/bin/env python3
"""dp-lint — repo-invariant linter for the DeePattern codebase.

Enforces the project rules that generic tools (clang-tidy, the Clang
thread-safety analysis) cannot express, because they are contracts of
THIS repo rather than of C++:

  DP001 banned-rng          src/ must draw randomness from dp::Rng only.
                            std::rand/srand, std::random_device and
                            time()-style seeding break seeded bit-exact
                            reproducibility.
  DP002 raw-sync            std::mutex / std::lock_guard /
                            std::unique_lock / std::condition_variable
                            and friends may appear only in
                            src/common/sync.hpp. Everything else uses
                            the dp::Mutex wrappers so the Clang
                            thread-safety analysis sees every lock.
  DP003 banned-flags        -march=native and -ffast-math must never
                            reappear in the build: the first breaks the
                            one-binary-any-host dispatch contract, the
                            second breaks bit-exact float determinism.
  DP004 unordered-iteration Iterating a std::unordered_* container in
                            src/ is hash-table-layout-dependent and
                            therefore platform-dependent. Output-
                            affecting paths must iterate ordered
                            containers; a deliberate order-insensitive
                            iteration is allowed with a
                            `// dp-lint: ordered` justification on the
                            same line or the line above.
  DP005 isa-confinement     Vector intrinsics (and <immintrin.h>) are
                            allowed only in *_avx2.cpp / *_avx512.cpp
                            translation units, which are the only TUs
                            built with -mavx2 / -mavx512f and only
                            entered behind the runtime cpuid dispatch.
                            AVX-512-specific surface (_mm512_*, __m512*,
                            __mmask*) is further confined to
                            *_avx512.cpp: an _avx2.cpp TU is compiled
                            without AVX-512 codegen, so a 512-bit
                            intrinsic there either fails to build or,
                            worse, silently pulls the whole TU above
                            its dispatch tier. One exemption:
                            _mm_getcsr / _mm_setcsr in
                            src/common/fp_env.cpp, which read and write
                            MXCSR, an x86-64 baseline register that
                            needs no runtime dispatch.
  DP006 raw-checkpoint-write
                            std::ofstream may not appear in src/nn/,
                            src/serve/, src/pipeline/, src/train/,
                            src/io/, examples/ or tools/: checkpoint,
                            bundle, segment, manifest and artifact
                            files must be published through
                            dp::AtomicFileWriter (write-temp + fsync +
                            atomic rename), or a crash mid-write
                            corrupts the previous good file. A
                            deliberate non-durable write is allowed
                            with `// dp-lint: non-atomic-write` on the
                            same line or the line above.
  DP007 blocking-socket-call
                            accept/accept4/recv/send inside
                            src/serve/eventloop.cpp: every socket the
                            event loop touches must be nonblocking
                            (SOCK_NONBLOCK / O_NONBLOCK), or one slow
                            peer stalls every connection on the loop
                            thread. Each call site must carry a
                            `// dp-lint: nonblocking` justification on
                            the same line or the line above stating why
                            the fd cannot block.

Usage:
  dp_lint.py [--root DIR]     scan the repository (default: cwd)
  dp_lint.py --sarif PATH     also write the findings as SARIF 2.1.0
                              (GitHub code-scanning subset)
  dp_lint.py --self-test      run the rule engine against the fixture
                              files in tests/lint/fixtures and verify
                              each detects exactly what its
                              `// dp-lint-expect:` header declares

Exit status 0 when clean, 1 on any finding (or self-test mismatch),
2 on a usage or internal error (unreadable tree, missing fixtures,
SARIF write failure).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# Exit status contract (mirrored by dp_analyze, labeled separately in
# CI): findings are a lint failure, everything else going wrong is a
# tool/usage error.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc")
# Fixture files deliberately violate the rules; never scan them as repo
# code.
EXCLUDED = ("tests/lint/fixtures", "tests/analyze/fixtures")

ESCAPE_ORDERED = "dp-lint: ordered"
ESCAPE_NON_ATOMIC = "dp-lint: non-atomic-write"
ESCAPE_NONBLOCKING = "dp-lint: nonblocking"


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


RE_RAW_DELIM = re.compile(r'[^\s()\\"]{0,16}$')


def _is_raw_string_open(text: str, i: int) -> bool:
    """True when the `"` at text[i] opens a raw string literal: it is
    preceded by R (optionally with a u8/u/U/L encoding prefix) that is
    not the tail of a longer identifier."""
    j = i - 1
    if j < 0 or text[j] != "R":
        return False
    j -= 1
    if j >= 1 and text[j - 1:j + 1] == "u8":
        j -= 2
    elif j >= 0 and text[j] in "uUL":
        j -= 1
    return j < 0 or not (text[j].isalnum() or text[j] == "_")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so findings keep real line numbers. Escape-hatch comments
    are matched against the ORIGINAL text, not this stripped view.

    Raw strings (`R"delim(...)delim"`) get dedicated handling: inside
    one, `"` and `\\` are ordinary characters, so the plain string
    state machine would exit early on an embedded quote (leaking
    literal content into the code view — false positives) or swallow
    real code after an odd number of embedded quotes (false
    negatives)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"' and _is_raw_string_open(text, i):
                paren = text.find("(", i + 1)
                delim = text[i + 1:paren] if paren != -1 else None
                if delim is not None and RE_RAW_DELIM.match(delim):
                    closer = ")" + delim + '"'
                    end = text.find(closer, paren + 1)
                    stop = end + len(closer) if end != -1 else n
                    for ch in text[i:stop]:
                        out.append("\n" if ch == "\n" else " ")
                    i = stop
                    continue
                # Malformed opener: fall through to the plain handler.
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def has_escape(raw_lines: list[str], line: int, escape: str) -> bool:
    """True when `escape` appears on `line` (1-based) or the line
    above it in the original (unstripped) file."""
    for ln in (line, line - 1):
        if 1 <= ln <= len(raw_lines) and escape in raw_lines[ln - 1]:
            return True
    return False


# --------------------------------------------------------------------------
# Rules. Each takes (relpath, raw text, stripped text) and yields
# Findings. `relpath` uses forward slashes relative to the repo root.
# --------------------------------------------------------------------------

RE_BANNED_RNG = re.compile(
    r"\bstd::rand\b|\bstd::srand\b|(?<![\w:])srand\s*\(|"
    r"\bstd::random_device\b|\bstd::time\s*\(|(?<![\w:.>])time\s*\("
)


def rule_banned_rng(relpath: str, raw: str, stripped: str):
    if not relpath.startswith("src/"):
        return
    for m in RE_BANNED_RNG.finditer(stripped):
        yield Finding(
            relpath, line_of(stripped, m.start()), "DP001",
            f"banned RNG/seed source `{m.group(0).strip()}` — src/ must "
            "use dp::Rng with an explicit seed",
        )


RE_RAW_SYNC = re.compile(
    r"\bstd::(mutex|recursive_mutex|recursive_timed_mutex|timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)


def rule_raw_sync(relpath: str, raw: str, stripped: str):
    if relpath == "src/common/sync.hpp":
        return  # the one place the std primitives are allowed
    for m in RE_RAW_SYNC.finditer(stripped):
        yield Finding(
            relpath, line_of(stripped, m.start()), "DP002",
            f"raw `{m.group(0)}` — use dp::Mutex/LockGuard/UniqueLock/"
            "CondVar from common/sync.hpp so the thread-safety analysis "
            "sees the lock",
        )


RE_BANNED_FLAGS = re.compile(r"-march=native|-ffast-math")


def rule_banned_flags(relpath: str, raw: str, stripped: str):
    base = os.path.basename(relpath)
    if base != "CMakeLists.txt" and not base.endswith(".cmake"):
        return
    for i, line in enumerate(raw.splitlines(), start=1):
        for m in RE_BANNED_FLAGS.finditer(line):
            yield Finding(
                relpath, i, "DP003",
                f"banned compiler flag `{m.group(0)}` — breaks the "
                "portable-dispatch / bit-determinism contract",
            )


RE_UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<"
)


def _unordered_names(stripped: str) -> set[str]:
    """Identifiers declared with a std::unordered_* type in this file
    (handles multi-line declarations and nested template arguments)."""
    names = set()
    for m in RE_UNORDERED_DECL.finditer(stripped):
        depth, i = 1, m.end()
        while i < len(stripped) and depth > 0:
            if stripped[i] == "<":
                depth += 1
            elif stripped[i] == ">":
                depth -= 1
            i += 1
        ident = re.match(r"\s*&?\s*(\w+)\s*[;={(,)]", stripped[i:])
        if ident:
            names.add(ident.group(1))
    return names


def rule_unordered_iteration(relpath: str, raw: str, stripped: str):
    if not relpath.startswith("src/"):
        return
    names = _unordered_names(stripped)
    if not names:
        return
    raw_lines = raw.splitlines()
    # Range-for over a declared unordered container, or explicit
    # begin()-family iteration on one.
    patterns = [
        re.compile(r"for\s*\([^;)]*?:\s*(\w+)\s*\)"),
        re.compile(r"\b(\w+)\s*\.\s*(?:c?r?begin)\s*\("),
    ]
    for pat in patterns:
        for m in pat.finditer(stripped):
            name = m.group(1)
            if name not in names:
                continue
            line = line_of(stripped, m.start())
            if has_escape(raw_lines, line, ESCAPE_ORDERED):
                continue
            yield Finding(
                relpath, line, "DP004",
                f"iteration over unordered container `{name}` — "
                "enumeration order is platform-dependent; use an ordered "
                "container or justify with `// dp-lint: ordered`",
            )


RE_INTRIN = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)i?d?\b|\b__mmask\d+\b|"
    r"immintrin\.h"
)
RE_AVX512_ONLY = re.compile(r"\b_mm512_\w+\s*\(|\b__m512i?d?\b|\b__mmask\d+\b")
# The floating-point control register accessors, allowed in exactly one
# baseline TU: MXCSR is part of x86-64 itself, so reading or writing it
# needs no cpuid dispatch.
FP_ENV_TU = "src/common/fp_env.cpp"
FP_ENV_INTRINSICS = ("_mm_getcsr", "_mm_setcsr")


def rule_isa_confinement(relpath: str, raw: str, stripped: str):
    base = os.path.basename(relpath)
    is_avx2_tu = base.endswith("_avx2.cpp")
    is_avx512_tu = base.endswith("_avx512.cpp")
    if is_avx512_tu:
        return  # widest tier: any intrinsic surface is in bounds
    if is_avx2_tu:
        # An _avx2.cpp TU is compiled with -mavx2 only; 512-bit surface
        # there breaks the tier contract even though generic intrinsics
        # are fine.
        for m in RE_AVX512_ONLY.finditer(stripped):
            yield Finding(
                relpath, line_of(stripped, m.start()), "DP005",
                f"AVX-512 intrinsic surface `{m.group(0).strip()}` in an "
                "*_avx2.cpp TU — 512-bit code belongs in *_avx512.cpp, "
                "the only TUs built with -mavx512f",
            )
        return
    # `#include <immintrin.h>` survives stripping (angle brackets are
    # code); the quoted-include form is blanked as a string literal, so
    # it gets its own raw-text scan below.
    for m in RE_INTRIN.finditer(stripped):
        name = m.group(0).rstrip("( \t\n")
        if relpath == FP_ENV_TU and name in FP_ENV_INTRINSICS:
            continue
        yield Finding(
            relpath, line_of(stripped, m.start()), "DP005",
            f"vector intrinsic surface `{m.group(0).strip()}` outside a "
            "*_avx2.cpp / *_avx512.cpp TU — ISA-specific code must stay "
            "behind the runtime dispatch boundary",
        )
    for i, line in enumerate(raw.splitlines(), start=1):
        if re.search(r'#\s*include\s*"[^"]*immintrin\.h"', line):
            yield Finding(
                relpath, i, "DP005",
                "immintrin.h include outside a *_avx2.cpp / "
                "*_avx512.cpp TU",
            )


RE_OFSTREAM = re.compile(r"\bstd::ofstream\b")


def rule_raw_checkpoint_write(relpath: str, raw: str, stripped: str):
    if not relpath.startswith(("src/nn/", "src/serve/", "src/pipeline/",
                               "src/train/", "src/io/", "examples/",
                               "tools/")):
        return
    raw_lines = raw.splitlines()
    for m in RE_OFSTREAM.finditer(stripped):
        line = line_of(stripped, m.start())
        if has_escape(raw_lines, line, ESCAPE_NON_ATOMIC):
            continue
        yield Finding(
            relpath, line, "DP006",
            "raw `std::ofstream` in checkpoint/bundle code — publish "
            "through dp::AtomicFileWriter (common/atomic_file.hpp) so a "
            "crash mid-write cannot corrupt the previous good file, or "
            "justify with `// dp-lint: non-atomic-write`",
        )


RE_BLOCKING_SOCKET = re.compile(r"\b(accept4?|recv|send)\s*\(")


def rule_blocking_socket(relpath: str, raw: str, stripped: str):
    """DP007: the epoll event loop is single-threaded per fd set; any
    socket call that can block parks every connection behind one slow
    peer. Confined to eventloop.cpp, where each accept/recv/send must
    state (via the escape comment) why its fd cannot block."""
    if relpath != "src/serve/eventloop.cpp":
        return
    raw_lines = raw.splitlines()
    for m in RE_BLOCKING_SOCKET.finditer(stripped):
        line = line_of(stripped, m.start())
        if has_escape(raw_lines, line, ESCAPE_NONBLOCKING):
            continue
        yield Finding(
            relpath, line, "DP007",
            f"socket call `{m.group(1)}` in the event loop without a "
            "nonblocking justification — a blocking fd here stalls every "
            "connection on the loop thread; request SOCK_NONBLOCK/"
            "O_NONBLOCK and justify with `// dp-lint: nonblocking`",
        )


RULES = [
    rule_banned_rng,
    rule_raw_sync,
    rule_banned_flags,
    rule_unordered_iteration,
    rule_isa_confinement,
    rule_raw_checkpoint_write,
    rule_blocking_socket,
]


def lint_text(relpath: str, raw: str) -> list[Finding]:
    stripped = strip_comments_and_strings(raw)
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule(relpath, raw, stripped))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def iter_repo_files(root: str):
    for top in SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            rel = os.path.relpath(dirpath, root).replace(os.sep, "/")
            dirnames[:] = sorted(
                d for d in dirnames
                if not any(f"{rel}/{d}".startswith(e) for e in EXCLUDED)
            )
            for name in sorted(filenames):
                relpath = f"{rel}/{name}"
                if any(relpath.startswith(e) for e in EXCLUDED):
                    continue
                if name.endswith(SOURCE_EXTS) or name == "CMakeLists.txt" \
                        or name.endswith(".cmake"):
                    yield relpath
    # The top-level build file is outside SCAN_DIRS but carries the
    # flag invariants.
    if os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        yield "CMakeLists.txt"


def scan_repo(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for relpath in iter_repo_files(root):
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            raw = fh.read()
        findings.extend(lint_text(relpath, raw))
    return findings


# --------------------------------------------------------------------------
# Self-test over the fixture corpus.
# --------------------------------------------------------------------------

RE_EXPECT = re.compile(r"//\s*dp-lint-expect:\s*(.*)")
RE_PATH = re.compile(r"//\s*dp-lint-path:\s*(\S+)")


def self_test(root: str) -> int:
    fixture_dir = os.path.join(root, "tests", "lint", "fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"dp-lint: no fixture dir at {fixture_dir}", file=sys.stderr)
        return EXIT_ERROR
    failures = 0
    names = sorted(os.listdir(fixture_dir))
    for name in names:
        path = os.path.join(fixture_dir, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        mpath = RE_PATH.search(raw)
        mexpect = RE_EXPECT.search(raw)
        if not mpath or not mexpect:
            print(f"FAIL {name}: missing dp-lint-path / dp-lint-expect "
                  "header")
            failures += 1
            continue
        expected = sorted(mexpect.group(1).split())
        if expected == ["none"]:
            expected = []
        got = sorted(f.rule for f in lint_text(mpath.group(1), raw))
        if got == expected:
            print(f"ok   {name}: {' '.join(got) or 'clean'}")
        else:
            print(f"FAIL {name}: expected [{' '.join(expected)}] "
                  f"got [{' '.join(got)}]")
            for f in lint_text(mpath.group(1), raw):
                print(f"       {f}")
            failures += 1
    if failures:
        print(f"dp-lint self-test: {failures} fixture(s) failed",
              file=sys.stderr)
        return 1
    print(f"dp-lint self-test: {len(names)} fixture(s) ok")
    return 0


RULE_SUMMARIES = {
    "DP001": "src/ must draw randomness from dp::Rng only",
    "DP002": "raw std:: sync primitives outside src/common/sync.hpp",
    "DP003": "-march=native / -ffast-math are banned from the build",
    "DP004": "unordered-container iteration is platform-dependent",
    "DP005": "vector intrinsics confined to *_avx2.cpp / *_avx512.cpp",
    "DP006": "checkpoint/bundle/artifact writes must use dp::AtomicFileWriter",
    "DP007": "event-loop socket calls must be nonblocking and justified",
}


def write_sarif(path: str, findings: list[Finding]) -> None:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from dp_analyze import sarif
    sarif.write(path, sarif.build("dp-lint", "1.0", RULE_SUMMARIES,
                                  findings))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the rule engine against the fixtures")
    ap.add_argument("--sarif", metavar="PATH",
                    help="also write the findings as SARIF 2.1.0")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"dp-lint: no such directory: {root}", file=sys.stderr)
        return EXIT_ERROR
    if args.self_test:
        return self_test(root)
    try:
        findings = scan_repo(root)
    except OSError as e:
        print(f"dp-lint: cannot scan {root}: {e}", file=sys.stderr)
        return EXIT_ERROR
    for f in findings:
        print(f)
    if args.sarif:
        try:
            write_sarif(args.sarif, findings)
        except (ImportError, OSError) as e:
            print(f"dp-lint: cannot write SARIF: {e}", file=sys.stderr)
            return EXIT_ERROR
    if findings:
        print(f"dp-lint: {len(findings)} finding(s)", file=sys.stderr)
        return EXIT_FINDINGS
    print("dp-lint: clean")
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
