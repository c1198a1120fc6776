#!/usr/bin/env python3
"""Determinism lint for the EBA tree.

The executor's contract is byte-identical reports regardless of thread
count, and the bench gate diffs JSON across runs — so nondeterminism that
the type system cannot see (hash-order iteration, unseeded randomness,
wall-clock reads) is a correctness bug here, not a style issue. This lint
enforces these invariants over src/ and tests/oracle/ (the boxed reference
engine, whose results the tests compare with the library's byte for byte),
plus CMake test registration:

  R1 unordered-iteration: iterating a std::unordered_{map,set} (range-for
     or .begin()) feeds hash order into whatever is built from it. Allowed
     only when a std::sort appears within the next few lines (sort-at-the-
     boundary idiom) or the line carries a `// lint:ordered` annotation
     stating why order cannot escape (e.g. order-insensitive aggregation).
  R2 unseeded-rng: std::random_device, bare rand()/srand(), or a
     default-constructed std::mt19937 make runs unreproducible. Use
     common/random.h (explicitly seeded) instead; `// lint:rng` overrides.
  R3 wall-clock: system_clock::now / time(NULL) / gettimeofday / localtime
     in result paths make outputs depend on when they ran. steady_clock is
     fine for durations; `// lint:wall-clock` overrides (e.g. a log line).
  R4 test-timeout: every add_test() in a CMakeLists.txt must have a
     matching set_tests_properties(... TIMEOUT ...) in the same file, so a
     hung test fails CI instead of stalling it.
  R5 raw-io: std::ofstream or fopen() inside src/storage/ bypasses the Env
     seam, so durability code using them escapes both fault injection
     (kill-at-every-write-op testing) and the fsync policy. Route file I/O
     through storage/io.h; `// lint:raw-io` overrides per line, and a
     line-1 annotation exempts a whole file (io.cc IS the seam — every raw
     call is supposed to live there).
  R6 column-payload: Column payloads live in fixed 64k-row chunks
     (storage/chunk.h), so outside src/storage/ there is no contiguous
     array to point into — a ChunkedVector escaping storage/, a column
     payload member (ints_/doubles_/nulls_/dict_lookup_), or a raw
     .data() taken off a column all assume the monolithic layout that
     chunking removed and would read garbage past a chunk seam. Go through
     the typed accessors or the ForEach*Span scan primitives;
     `// lint:column-data` overrides (e.g. a span pointer handed out BY the
     accessor itself). The chunk-size constants (kColumnChunkRows et al.)
     are fine anywhere — aligning shards to chunks is the point.
  R7 raw-net: raw POSIX socket calls (::socket/::bind/::accept/...) or
     socket-API headers anywhere in src/ bypass the NetEnv seam
     (net/socket.h), so serving code using them escapes the in-memory
     transport the deterministic server tests and fuzz harness run on.
     `// lint:raw-net` overrides per line, and a line-1 annotation exempts
     a whole file (socket.cc IS the seam — every raw socket call is
     supposed to live there, mirroring R5 and storage/io.cc).

Exit status: 0 = clean, 1 = violations found, 2 = usage/IO error.
"""

import argparse
import os
import re
import sys

# How many lines after an unordered iteration a std::sort may appear and
# still count as "sorted at the boundary".
SORT_WINDOW = 4

CPP_EXTENSIONS = (".h", ".cc")

# The C++ trees the rules apply to: the library, and the test oracle whose
# results are compared with the library's byte for byte.
CPP_SUBTREES = ("src", os.path.join("tests", "oracle"))

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;()]*?>\s*"
    r"[&*]?\s*(\w+)\s*(?:[;={(\[]|$)"
)
RANGE_FOR = re.compile(r"\bfor\s*\([^;]*?:\s*&?(\w+)\s*\)")
BEGIN_CALL = re.compile(r"\b(\w+)\.begin\(\)")
SORT_CALL = re.compile(r"\bstd::(?:stable_)?sort\s*\(")

RNG_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])rand\s*\(\s*\)"), "bare rand()"),
    (re.compile(r"(?<![\w:])srand\s*\("), "srand()"),
    (re.compile(r"\bstd::mt19937(?:_64)?\s+\w+\s*;"),
     "default-constructed std::mt19937"),
]

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock::now\b"), "system_clock::now"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time(NULL)"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"\blocaltime(?:_r)?\s*\("), "localtime"),
]

RAW_IO_PATTERNS = [
    (re.compile(r"\bstd::[io]?fstream\b"), "a std:: file stream"),
    (re.compile(r"(?<![\w:])(?:std::)?fopen\s*\("), "fopen()"),
]

# Only durability code is held to the Env-seam rule; the rest of src/ may
# use streams (e.g. report writers) without fault-injection coverage.
RAW_IO_SUBTREE = "src/storage/"

# R6: the chunked-payload layout must not leak out of this subtree. Inside
# it, Column/ChunkedVector implementation code touches payloads directly by
# design.
COLUMN_PAYLOAD_SUBTREE = "src/storage/"

COLUMN_PAYLOAD_PATTERNS = [
    (re.compile(r"\bChunkedVector\s*<"),
     "a ChunkedVector (the chunked payload container)"),
    (re.compile(r"\b(?:ints_|doubles_|nulls_|dict_lookup_)\b"),
     "a Column payload member"),
]

# A .data() pointer taken on the same line as a column expression: the
# classic pre-chunking idiom (`&col->...data()[row]`) that assumes one
# contiguous array. Heuristic on purpose — the fixture self-tests pin it.
COLUMN_DATA_CALL = re.compile(r"(?:\.|->)\s*data\s*\(")
COLUMN_MENTION = re.compile(r"[Cc]olumn")

# R7: global-scope POSIX socket calls and the headers that provide them.
# The `::` prefix keeps member functions (conn->Connect()), std::bind and
# the capitalized wrappers out of scope — the seam file itself writes raw
# calls in exactly this form.
RAW_NET_PATTERNS = [
    (re.compile(r"(?<!\w)::(?:socket|bind|listen|accept|connect|recv|send"
                r"|sendto|recvfrom|setsockopt|getsockopt|getsockname"
                r"|shutdown)\s*\("),
     "a raw POSIX socket call"),
    (re.compile(r"#include\s*<(?:sys/socket|netinet/in|netinet/tcp"
                r"|arpa/inet|netdb)\.h>"),
     "a socket-API header"),
]

ADD_TEST = re.compile(r"\badd_test\s*\(\s*(?:NAME\s+)?(\S+)")
SET_TESTS_PROPERTIES = re.compile(r"\bset_tests_properties\s*\(\s*(\S+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comment(line):
    """Code portion of a line (// comments removed; strings left alone —
    good enough for this tree, which holds no '//' inside literals that
    would matter to these patterns)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def has_annotation(lines, i, tag):
    """True if line i or the line above carries `// lint:<tag>`."""
    marker = f"lint:{tag}"
    if marker in lines[i]:
        return True
    return i > 0 and marker in lines[i - 1]


def check_cpp_file(path, rel, findings):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    unordered_vars = set()
    for raw in lines:
        code = strip_comment(raw)
        for m in UNORDERED_DECL.finditer(code):
            unordered_vars.add(m.group(1))

    # R5 scope: only durability code, and a line-1 annotation exempts the
    # whole file (the io.cc seam, where every raw call belongs).
    check_raw_io = (
        rel.replace(os.sep, "/").startswith(RAW_IO_SUBTREE)
        and not (lines and "lint:raw-io" in lines[0]))

    # R6 scope: everything outside the storage subtree (where the chunk
    # layout is implementation detail, not leakage).
    check_column_payload = not rel.replace(os.sep, "/").startswith(
        COLUMN_PAYLOAD_SUBTREE)

    # R7 scope: every linted file; a line-1 annotation exempts the seam file
    # itself (net/socket.cc), where every raw socket call belongs.
    check_raw_net = not (lines and "lint:raw-net" in lines[0])

    for i, raw in enumerate(lines):
        code = strip_comment(raw)

        # R1: iteration over an unordered container.
        iterated = set()
        m = RANGE_FOR.search(code)
        if m and m.group(1) in unordered_vars:
            iterated.add(m.group(1))
        for m in BEGIN_CALL.finditer(code):
            if m.group(1) in unordered_vars:
                iterated.add(m.group(1))
        if iterated and not has_annotation(lines, i, "ordered"):
            window = lines[i : i + 1 + SORT_WINDOW]
            if not any(SORT_CALL.search(strip_comment(w)) for w in window):
                names = ", ".join(sorted(iterated))
                findings.append(Finding(
                    rel, i + 1, "unordered-iteration",
                    f"iterating unordered container '{names}' without a "
                    f"std::sort within {SORT_WINDOW} lines; sort at the "
                    "boundary or annotate `// lint:ordered <why>`"))

        # R2: unseeded randomness.
        if not has_annotation(lines, i, "rng"):
            for pattern, what in RNG_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(
                        rel, i + 1, "unseeded-rng",
                        f"{what} makes runs unreproducible; use the seeded "
                        "common/random.h Random or annotate "
                        "`// lint:rng <why>`"))

        # R3: wall-clock reads.
        if not has_annotation(lines, i, "wall-clock"):
            for pattern, what in WALL_CLOCK_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(
                        rel, i + 1, "wall-clock",
                        f"{what} in a result path makes output depend on "
                        "when it ran; use steady_clock for durations or "
                        "annotate `// lint:wall-clock <why>`"))

        # R5: raw file I/O bypassing the Env seam in durability code.
        if check_raw_io and not has_annotation(lines, i, "raw-io"):
            for pattern, what in RAW_IO_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(
                        rel, i + 1, "raw-io",
                        f"{what} in {RAW_IO_SUBTREE} bypasses the Env seam "
                        "(no fault injection, no fsync policy); route "
                        "through storage/io.h or annotate "
                        "`// lint:raw-io <why>`"))

        # R7: raw sockets bypassing the NetEnv transport seam.
        if check_raw_net and not has_annotation(lines, i, "raw-net"):
            for pattern, what in RAW_NET_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(
                        rel, i + 1, "raw-net",
                        f"{what} outside the net/socket.cc seam escapes the "
                        "in-memory transport (no deterministic server tests, "
                        "no connection fault injection); route through "
                        "net/socket.h or annotate `// lint:raw-net <why>`"))

        # R6: chunked column payloads accessed as if monolithic.
        if check_column_payload and not has_annotation(lines, i,
                                                       "column-data"):
            for pattern, what in COLUMN_PAYLOAD_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(
                        rel, i + 1, "column-payload",
                        f"{what} outside {COLUMN_PAYLOAD_SUBTREE} bypasses "
                        "the chunk accessors; use the typed accessors / "
                        "ForEach*Span or annotate "
                        "`// lint:column-data <why>`"))
            if (COLUMN_DATA_CALL.search(code)
                    and COLUMN_MENTION.search(code)):
                findings.append(Finding(
                    rel, i + 1, "column-payload",
                    "raw .data() on a column expression assumes one "
                    "contiguous payload array (chunked since "
                    "storage/chunk.h); scan via ForEach*Span or annotate "
                    "`// lint:column-data <why>`"))


def check_cmake_file(path, rel, findings):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    text = "\n".join(strip_comment_cmake(l) for l in lines)
    # Tests with a TIMEOUT: set_tests_properties(<token> ... TIMEOUT appears
    # anywhere in the same file. Tokens compare literally, so the
    # foreach(${suite}) registration idiom matches its own properties call.
    with_timeout = set()
    for m in SET_TESTS_PROPERTIES.finditer(text):
        tail = text[m.end() : m.end() + 400]
        call = tail.split(")", 1)[0]
        if "TIMEOUT" in call:
            with_timeout.add(m.group(1).rstrip(")"))

    for i, raw in enumerate(lines):
        code = strip_comment_cmake(raw)
        m = ADD_TEST.search(code)
        if not m:
            continue
        token = m.group(1).rstrip(")")
        if token not in with_timeout:
            findings.append(Finding(
                rel, i + 1, "test-timeout",
                f"add_test({token}) has no matching set_tests_properties("
                f"{token} ... TIMEOUT ...) in this file; a hung test must "
                "fail CI, not stall it"))


def strip_comment_cmake(line):
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def walk(root, subdir, extensions):
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(extensions):
                full = os.path.join(dirpath, name)
                yield full, os.path.relpath(full, root)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: two levels above this script)")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"error: no src/ under root {root}", file=sys.stderr)
        return 2

    findings = []
    for subtree in CPP_SUBTREES:
        for full, rel in walk(root, subtree, CPP_EXTENSIONS):
            check_cpp_file(full, rel, findings)
    for subdir in ("src", "tests", os.path.join("tests", "oracle"), "bench",
                   "examples", "tools", "."):
        path = os.path.join(root, subdir, "CMakeLists.txt")
        if os.path.isfile(path):
            check_cmake_file(path, os.path.relpath(path, root), findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} determinism-lint violation(s).",
              file=sys.stderr)
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
