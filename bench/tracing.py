"""Spans around latmap's public functions, recorded from outside the program.

``Tracer`` rebinds each traced name in every loaded ``latmap`` module that
holds it (``latmap.decompose.map_function`` as well as
``latmap.mapper.map_function``), so calls between layers are seen too, and
puts the originals back when the ``with`` block ends.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


def _function_key(f) -> str:
    """Order-free text key of a term list, to spot repeated mapper calls."""
    return ";".join(sorted(" ".join(map(str, sorted(t))) for t in f))


def _describe_map(attrs: dict, args: tuple, kwargs: dict, result) -> None:
    attrs["status"] = result.status
    attrs["key"] = _function_key(args[0] if args else kwargs["f"])


# (module, public name, span name, what to record about the result)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("latmap.paths", "enumerate_paths", "paths.enumerate",
     lambda a, args, kw, r: a.update(paths_out=len(r))),
    ("latmap.solver", "solve_lattice", "solver.solve",
     lambda a, args, kw, r: a.update(terms_out=len(r))),
    ("latmap.codes", "equivalent", "codes.equivalent", None),
    ("latmap.mapper", "map_function", "mapper.map", _describe_map),
    ("latmap.decompose", "decompose_two", "decompose", None),
    ("latmap.synth", "synthesize", "synth",
     lambda a, args, kw, r: a.update(lattices_out=len(r.lattices) if r else 0)),
    ("latmap.cli", "main", "cli", None),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    input_id: Optional[str]
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "input": self.input_id, **self.attrs,
        }


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.input_id: Optional[str] = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, describe: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), name, 0.0, 0.0,
                        stack[-1] if stack else None, self.input_id)
            spans.append(span)
            stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if describe is not None:
                describe(span.attrs, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "latmap" or n.startswith("latmap.")]
        for home, name, span_name, describe in TARGETS:
            original = getattr(sys.modules[home], name)
            traced = self._wrap(span_name, original, describe)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, traced)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


LAYERS = tuple(t[2] for t in TARGETS)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times; see BENCHMARK.json ``per_layer``."""
    own = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for key in ("paths.enumerate.paths_out", "solver.solve.terms_out",
                "mapper.map.solved", "mapper.map.no_solution",
                "mapper.map.inconclusive", "mapper.map.solved_s",
                "mapper.map.no_solution_s", "decompose.map_calls",
                "decompose.repeat_maps", "synth.map_calls",
                "synth.decompose_calls", "synth.repeat_maps", "synth.lattices_out"):
        m[key] = 0

    # root (top-level call) and nearest decompose / synth ancestor per span;
    # spans are stored in start order, so a parent precedes its children
    root: list[int] = []
    under: list[frozenset[str]] = []
    seen: dict[int, set[str]] = {}
    for s in spans:
        if s.parent is None:
            root.append(s.sid)
            under.append(frozenset())
        else:
            p = spans[s.parent]
            root.append(root[p.sid])
            under.append(under[p.sid] | ({p.name} & {"decompose", "synth"}))
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += own[s.sid]
        for attr in ("paths_out", "terms_out", "lattices_out"):
            if attr in s.attrs:
                m[f"{s.name}.{attr}"] += s.attrs[attr]
        if s.name == "decompose" and "synth" in under[s.sid]:
            m["synth.decompose_calls"] += 1
        elif s.name == "mapper.map" and "status" in s.attrs:  # absent if it raised
            status = s.attrs["status"].replace("-", "_")
            m[f"mapper.map.{status}"] += 1
            if status in ("solved", "no_solution"):
                m[f"mapper.map.{status}_s"] += s.end - s.start
            keys = seen.setdefault(root[s.sid], set())
            repeat = s.attrs["key"] in keys
            keys.add(s.attrs["key"])
            for outer in under[s.sid]:
                m[f"{outer}.map_calls"] += 1
                m[f"{outer}.repeat_maps"] += repeat
    calls = m["mapper.map.calls"]
    m["mapper.map.solved_ratio"] = m["mapper.map.solved"] / calls if calls else 0.0
    return m
