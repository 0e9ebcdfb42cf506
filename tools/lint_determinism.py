#!/usr/bin/env python3
"""Determinism lint for the mpsram sources.

The repo's central guarantee is bitwise thread-count determinism of every
parallel path (ROADMAP, "Determinism contract").  This linter catches the
constructs that historically break that guarantee at the point they are
introduced, before any bench gate can notice a drifting checksum:

  rand                 C rand() draws from hidden global state.
  random-device        std::random_device is nondeterministic by design;
                       every stream must derive from an explicit seed
                       (util::Rng::stream / Rng::child).
  wall-clock           time() / std::chrono ::now() make results depend on
                       when they ran.  Bench wall-time measurement lives in
                       bench/, which is not scanned; src/ must stay clean.
  unordered-iteration  Iterating an unordered_{map,set} feeds hash-order —
                       which varies across libstdc++ versions and pointer
                       salts — into whatever the loop accumulates.  Iterate
                       a sorted container or an index range instead.
  float-narrowing      float in numeric code silently narrows; reduction
                       loops accumulate the 2^-24 steps into thread-count-
                       dependent results.  The codebase is double-only.
  raw-thread           std::thread / std::jthread / std::async / OpenMP
                       outside util::Thread_pool bypass the deterministic
                       chunking of core::run and the one-pool-per-thread
                       discipline.
  raw-socket           socket/accept/bind/connect/recv/send/poll/select
                       syscalls outside src/util/ and src/core/service.cpp
                       grow an unaudited I/O surface; all socket I/O goes
                       through util::Socket / util::Unix_listener and the
                       service daemon's poll loop.
  raw-engine           std::mt19937(_64) / minstd_rand / ranlux /
                       knuth_b / default_random_engine outside
                       src/util/rng.{h,cpp}.  util::Rng is the one
                       engine: Mt19937_64_lazy makes a per-sample
                       substream cheap, and a std engine in a hot loop
                       pays the full 312-word seed and twist again.

Escape hatch: a finding on a line containing `// lint:allow(<rule>)` (or
whose previous line is exactly such a comment) is suppressed.  Use it for
reviewed, order-insensitive exceptions and say why next to it.

Self-test: `--self-test` runs the rules over tools/lint_fixtures/, where
every deliberate violation is annotated `// lint:expect(<rule>)`; the
linter proves each rule fires exactly where expected (and nowhere else)
and that lint:allow suppresses.  CI runs the self-test before the real
scan, so a regex regression cannot silently stop a rule from firing.

Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage error.
No dependencies outside the standard library.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

# Paths (relative to the repo root, '/'-separated) where raw threading
# primitives are the implementation of the sanctioned pool itself.
RAW_THREAD_ALLOWED = ("src/util/thread_pool.h", "src/util/thread_pool.cpp")

# Where raw socket/poll syscalls are the implementation of the sanctioned
# I/O layer: the util socket wrappers and the service daemon's poll loop.
RAW_SOCKET_ALLOWED_PREFIXES = ("src/util/",)
RAW_SOCKET_ALLOWED = ("src/core/service.cpp",)

# Where a raw std random engine may appear: the util::Rng implementation.
RAW_ENGINE_ALLOWED = ("src/util/rng.h", "src/util/rng.cpp")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
EXPECT_RE = re.compile(r"//\s*lint:expect\(([a-z-]+)\)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self, root: Path) -> str:
        try:
            shown = self.path.relative_to(root)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literal contents, preserving
    line structure so finding line numbers stay exact."""
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
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(c)
                i += 1
            elif c == "'":
                state = "char"
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


# --- per-line regex rules ----------------------------------------------------

LINE_RULES = [
    (
        "rand",
        re.compile(r"(?<!::)\brand\s*\(|\bsrand\s*\("),
        "C rand()/srand() draw from hidden global state; derive a "
        "util::Rng stream from an explicit seed instead",
    ),
    (
        "random-device",
        re.compile(r"\brandom_device\b"),
        "std::random_device is nondeterministic; seed util::Rng "
        "explicitly (Rng::stream / Rng::child)",
    ),
    (
        "wall-clock",
        # `time` only in its C call form (an argument present), so that
        # accessors/members named time() do not fire.
        re.compile(
            r"(?<![\w:.])time\s*\(\s*(?:NULL\b|nullptr\b|0\b|&)"
            r"|::now\s*\(|\bclock\s*\(\s*\)|\bgettimeofday\b"
        ),
        "wall-clock reads make results depend on when they ran; keep "
        "timing in bench/ drivers only",
    ),
    (
        "float-narrowing",
        re.compile(r"\bfloat\b"),
        "float narrows silently and makes reduction order observable; "
        "this codebase computes in double",
    ),
    (
        "raw-thread",
        re.compile(
            r"std::thread\b(?!::hardware_concurrency)|std::jthread\b"
            r"|std::async\b|#\s*pragma\s+omp\b|#\s*include\s*<omp\.h>"
        ),
        "raw threading outside util::Thread_pool bypasses the "
        "deterministic chunking of core::run",
    ),
    (
        "raw-socket",
        # Two spellings of a raw syscall: a bare call (`accept(fd, ...)`,
        # not preceded by an identifier, '.', or '::' — so member calls
        # and qualified names stay quiet) and a global-qualified call
        # (`::socket(...)` where the `::` is not itself qualified).
        re.compile(
            r"(?<![\w.:])(?:socket|accept4?|bind|listen|connect|recv"
            r"|send(?:msg|to)?|poll|ppoll|select|epoll_(?:create1?|ctl|wait))"
            r"\s*\("
            r"|(?<![\w)>\]])::(?:socket|accept4?|bind|listen|connect|recv"
            r"|send(?:msg|to)?|poll|ppoll|select|epoll_(?:create1?|ctl|wait))"
            r"\s*\("
        ),
        "raw socket/poll syscalls outside src/util/ and "
        "src/core/service.cpp; route I/O through util::Socket / "
        "util::Unix_listener",
    ),
    (
        "raw-engine",
        re.compile(
            r"\b(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w*|knuth_b"
            r"|default_random_engine)\b"
        ),
        "raw std random engine outside src/util/rng.{h,cpp}; draw from "
        "util::Rng (Rng::stream / Rng::child) instead",
    ),
]

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;\n]*>\s*(?:const\s*)?[&*]?\s*(\w+)\s*[;{=,()]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([^)]+)\)")
UNORDERED_EXPR_RE = re.compile(r"\bunordered_(?:map|set)\b")


def scan_file(path: Path, relpath: str, self_test: bool) -> tuple[list, list]:
    """Return (findings, expects) for one file."""
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.split("\n")
    code = strip_comments_and_strings(raw)
    code_lines = code.split("\n")

    allows: dict[int, set] = {}
    expects = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            # An allow comment covers its own line; a comment-only line
            # covers the next line too.
            allows.setdefault(idx, set()).update(rules)
            if line.strip().startswith("//"):
                allows.setdefault(idx + 1, set()).update(rules)
        if self_test:
            e = EXPECT_RE.search(line)
            if e:
                expects.append((relpath, idx, e.group(1)))

    findings = []

    def report(lineno: int, rule: str, message: str):
        if rule in allows.get(lineno, set()):
            return
        findings.append(Finding(path, lineno, rule, message))

    for idx, line in enumerate(code_lines, start=1):
        for rule, rx, message in LINE_RULES:
            if rule == "raw-thread" and relpath in RAW_THREAD_ALLOWED:
                continue
            if rule == "raw-socket" and (
                relpath.startswith(RAW_SOCKET_ALLOWED_PREFIXES)
                or relpath in RAW_SOCKET_ALLOWED
            ):
                continue
            if rule == "raw-engine" and relpath in RAW_ENGINE_ALLOWED:
                continue
            if rx.search(line):
                report(idx, rule, message)

    # unordered-iteration: a range-for whose range expression names an
    # unordered container — either spelled inline or declared as one
    # earlier in the same file.
    unordered_names = set(UNORDERED_DECL_RE.findall(code))
    for idx, line in enumerate(code_lines, start=1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        range_expr = m.group(1)
        names = set(re.findall(r"\b\w+\b", range_expr))
        if UNORDERED_EXPR_RE.search(range_expr) or (
            names & unordered_names
        ):
            report(
                idx,
                "unordered-iteration",
                "iterating an unordered container feeds hash order into "
                "the loop; iterate a sorted container or index range",
            )

    return findings, expects


def collect_sources(paths: list[Path]) -> list[Path]:
    files = []
    for p in paths:
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(
                f
                for f in sorted(p.rglob("*"))
                if f.suffix in SOURCE_SUFFIXES and f.is_file()
            )
        else:
            print(f"error: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (default: src/)",
    )
    parser.add_argument(
        "--report", type=Path, help="also write findings to this file"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the rules over tools/lint_fixtures/ and verify every "
        "lint:expect annotation fires exactly once",
    )
    args = parser.parse_args()

    if args.self_test:
        scan_paths = [root / "tools" / "lint_fixtures"]
    elif args.paths:
        scan_paths = args.paths
    else:
        scan_paths = [root / "src"]

    findings: list[Finding] = []
    expects: list[tuple] = []
    for f in collect_sources(scan_paths):
        try:
            rel = str(f.resolve().relative_to(root)).replace("\\", "/")
        except ValueError:
            rel = str(f)
        file_findings, file_expects = scan_file(f, rel, args.self_test)
        findings.extend(file_findings)
        expects.extend(file_expects)

    lines = [fi.render(root) for fi in findings]

    if args.self_test:
        got = set()
        for fi in findings:
            try:
                rel = str(fi.path.resolve().relative_to(root))
            except ValueError:
                rel = str(fi.path)
            got.add((rel.replace("\\", "/"), fi.line, fi.rule))
        want = set(expects)
        missing = sorted(want - got)
        unexpected = sorted(got - want)
        for relpath, line, rule in missing:
            lines.append(
                f"self-test: {relpath}:{line}: rule '{rule}' did not fire"
            )
        for relpath, line, rule in unexpected:
            lines.append(
                f"self-test: {relpath}:{line}: unexpected finding '{rule}'"
            )
        ok = not missing and not unexpected and want
        if not want:
            lines.append("self-test: no lint:expect annotations found")
        verdict = "PASS" if ok else "FAIL"
        lines.append(
            f"self-test {verdict}: {len(want)} expected findings, "
            f"{len(got)} fired"
        )
        output = "\n".join(lines) + "\n"
        sys.stdout.write(output)
        if args.report:
            args.report.write_text(output, encoding="utf-8")
        return 0 if ok else 1

    output = "\n".join(lines) + ("\n" if lines else "")
    if lines:
        sys.stdout.write(output)
        sys.stdout.write(f"{len(lines)} determinism-lint finding(s)\n")
    else:
        sys.stdout.write("determinism lint: clean\n")
    if args.report:
        args.report.write_text(
            output if lines else "determinism lint: clean\n",
            encoding="utf-8",
        )
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
