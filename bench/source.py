"""Locate the latmap sources of the checkout the benchmark lives in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_latmap():
    """Import latmap from ``src/`` of this checkout, never from elsewhere.

    Raises ImportError when the checkout holds no sources, so that a run in
    a directory with only the benchmark fails instead of measuring some
    installed copy.
    """
    if not (SRC / "latmap" / "__init__.py").is_file():
        raise ImportError(f"no latmap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    latmap = importlib.import_module("latmap")
    importlib.import_module("latmap.cli")  # not imported by the package
    if Path(latmap.__file__).resolve().parent != SRC / "latmap":
        raise ImportError(f"latmap was imported from {latmap.__file__}, not {SRC}")
    return latmap


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
