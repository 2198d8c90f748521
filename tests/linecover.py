"""Every line of src/gtlab that no test runs, as a gate.

    PYTHONPATH=src python tests/linecover.py [pytest arguments]

runs pytest in this process under a ``sys.settrace`` collector and prints each
executable line of ``src/gtlab`` (from ``co_lines`` of every code object the
source compiles to) that did not run and that ``tests/unrun_lines.txt`` does
not name.  It exits 1 if there is one, or if an entry of that list names no
unrun line, and otherwise with pytest's own exit code.  A line that only a
subprocess runs is invisible here; the list names each such line, one
``file | source line | reason`` entry per line.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gtlab"
ALLOWED = TESTS / "unrun_lines.txt"


def executable(path: Path) -> set[int]:
    """The line numbers that carry bytecode in ``path``, over all its code objects."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def allowed() -> dict[tuple[str, str], str]:
    """(file, stripped source line) -> reason, for each entry of the list."""
    entries = [line.split(" | ") for line in ALLOWED.read_text().splitlines()
               if line.strip() and not line.startswith("#")]
    if any(len(e) != 3 or not e[2].strip() for e in entries):
        raise SystemExit(f"{ALLOWED}: every entry is 'file | source line | reason'")
    return {(name.strip(), text.strip()): reason for name, text, reason in entries}


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(f"{SRC}{os.sep}")
        if not ours[name]:
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)  # the call: the def line
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seen = {os.path.realpath(name): lines for name, lines in ran.items()}
    unrun = [(path.relative_to(SRC).as_posix(), n, path.read_text().splitlines()[n - 1].strip())
             for path in sorted(SRC.rglob("*.py"))
             for n in sorted(executable(path) - seen.get(str(path), set()))]
    expected = allowed()
    stale = set(expected) - {(name, text) for name, _, text in unrun}
    bad = [u for u in unrun if (u[0], u[2]) not in expected]
    for name, n, text in bad:
        print(f"no test runs src/gtlab/{name}:{n}: {text}")
    for name, text in sorted(stale):
        print(f"{ALLOWED.name} names a line that runs or is gone: {name} | {text}")
    return 1 if bad or stale else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
