"""Print the line counts of ``src/latmap``, per module and in total.

    python3 tools/loc.py

Each line gives a module's raw line count and the line count of
``ast.unparse`` of its syntax tree once the module, class and function
docstrings are dropped.  The second count leaves out docstrings, comments
and blank lines and lays out every statement alike, so it moves only when
code does.  It reads the ``src/latmap`` of its own checkout and writes
nothing; standard library only.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latmap"


def _code_lines(source: str) -> int:
    """The lines of ``ast.unparse`` of ``source`` without its docstrings."""
    tree = ast.parse(source)
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds) and ast.get_docstring(node, False) is not None:
            node.body = node.body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def main() -> int:
    total_raw = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        raw, code = len(source.splitlines()), _code_lines(source)
        total_raw += raw
        total_code += code
        print(f"{path.stem:<16}{raw:>7}{code:>7}")
    print(f"{'total':<16}{total_raw:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
