"""Print every executable line of ``src/latmap`` that the tier-1 tests never run.

    python3 tools/unrun.py

It runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` at
the repo root) in this process under ``sys.settrace``, tracing only frames
of ``src/latmap``, and then prints each executable line that no trace event
reached, one per line as ``file:line: source``.  A line is executable when
some code object compiled from its file has an instruction on it.

It reports lines, not test results.  The suite's own summary is printed
first, but under a trace function the tests run several times slower (63–71 s
against 17–19 s plain on a 2-core VM, Python 3.11), so a test that bounds
wall time or inspects frames or garbage may not pass as it does in a plain
run.  Standard
library only; ``coverage`` does the same with more care, where it is
installed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latmap"


def _executable(code: CodeType) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _executable(const)
    return lines


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported before tracing starts; it imports no latmap

    sys.settrace(trace)
    try:
        pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec", dont_inherit=True)
        text = source.splitlines()
        missed = _executable(code) - ran.get(str(path), set())
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
