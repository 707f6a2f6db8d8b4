#!/usr/bin/env python3
"""Print every executable line of `src/refvae` that a pytest run never reaches.

    python3 scripts/line_trace.py [PYTEST_ARGS ...]

With no arguments it runs the tier-1 suite (`tests/`); any arguments are
handed to pytest instead, for example `tests/test_cli.py -k decode`.  Pytest
runs in this process under `sys.settrace` (and `threading.settrace`), so only
the standard library is needed.  A line counts as executable when a code
object compiled from the file has an instruction on it.  Processes that the
run spawns, such as the grid points of `ablate --workers N` with N > 1, are
not traced: lines only they run are reported as unreached.

The output is one `path:line: source` row per unreached line, then a summary
of executable and unreached lines per file.  The exit code is pytest's.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "refvae"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that hold an instruction of any code object of `path`."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def trace_lines(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        # a function's first line has no line event of its own, only its call
        if frame.f_code.co_filename in reached:
            return trace_lines(frame, event, arg)
        return None

    sys.path.insert(0, str(ROOT / "src"))  # as tier-1's PYTHONPATH=src: refvae imports from these files
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                                    "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    summary = []
    for name, path in files.items():
        source, lines = path.read_text().splitlines(), executable_lines(path)
        missed = sorted(lines - reached[name])
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        summary.append(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} executable lines unreached")
    print("\n".join(summary))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
