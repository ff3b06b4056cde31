"""Benchmark of latmap: one workload per run, timed from outside the program.

    python3 bench/run.py --workload forward --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``forward``,
``map-solved``, ``map-negative`` and ``pipeline``.  The run builds its inputs
from ``--seed``, times every input in interleaved rounds for about
``--seconds``, checks every output outside the timed region, and prints one
row per input, a summary of every end-to-end metric, a run record, and as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

Times are wall times scaled by speed readings taken in the run (see SPEED_LOOP);
the raw wall times are printed beside them.  Every workload in one go:

    for w in forward map-solved map-negative pipeline; do
        python3 bench/run.py --workload $w --seed 1 --seconds 15 --trace 0; done

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs each input once untraced and once traced, alternating
which goes first, and reports the per-layer metrics of the traced calls and
the difference in total time as ``trace.overhead_s``.  Run records and
spans are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import source
import tracing
import workloads

OUT_DIR = source.ROOT / ".bench_out"
BENCHMARK_JSON = source.ROOT / "BENCHMARK.json"

# Set-up (import and input generation) is repeated and its median reported.
SETUP_REPS = 15
# No input is timed more often than this.
MAX_SAMPLES = 7
# The tail latency is the highest percentile with this many inputs beyond it.
TAIL_BEYOND = 10
# Shared hosts drift in speed by up to a quarter between runs: a fixed loop
# read 11 to 18 ms within minutes on a 2-core VM.  A run therefore takes a
# speed reading between timed calls, at most every READ_EVERY_S, and reports
# the times of each phase (set-up, measuring) at the speed at which a
# reading takes NOMINAL_LOOP_S: they are scaled by NOMINAL_LOOP_S over the
# phase's time-weighted median reading.  Raw wall times are kept beside them.
SPEED_LOOP = 7_000
NOMINAL_LOOP_S = 0.5e-3
READ_EVERY_S = 0.05


def speed_reading() -> float:
    """Seconds for a fixed pure-Python loop, the fastest of three tries
    (an interrupt only ever adds time)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(SPEED_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedLog:
    """Speed readings of one phase of a run, taken between timed calls."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []  # (taken at, seconds)

    def between_calls(self) -> None:
        now = time.perf_counter()
        if not self.readings or now - self.readings[-1][0] >= READ_EVERY_S:
            self.readings.append((now, speed_reading()))

    def median(self) -> float:
        """Time-weighted median reading.  A reading stands for half the time
        to each neighbouring reading, so a long call is judged by the
        readings just before and after it, not by a burst of short calls."""
        at = [t for t, _ in self.readings]
        last = len(at) - 1
        weighted = sorted(
            (r, at[min(i + 1, last)] - at[max(i - 1, 0)])
            for i, (_, r) in enumerate(self.readings)
        )
        half = sum(w for _, w in weighted) / 2
        acc = 0.0
        for r, w in weighted:
            acc += w
            if acc >= half:
                break
        return r

    def scale(self) -> float:
        return NOMINAL_LOOP_S / self.median()


def timed(fn, speed: SpeedLog) -> tuple[object, float]:
    speed.between_calls()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    speed.between_calls()
    return out, wall


def fresh_setup(name: str, seed: int, workdir: Path, small: bool, speed: SpeedLog):
    """Import latmap anew and build the inputs: (inputs, wall seconds)."""
    for mod in [m for m in sys.modules if m == "latmap" or m.startswith("latmap.")]:
        del sys.modules[mod]
    return timed(lambda: workloads.build(name, source.import_latmap(), seed, workdir, small),
                 speed)


def _round_order(inputs, rng: random.Random):
    return sorted(rng.sample(inputs, len(inputs)), key=lambda i: i.stage)


def _error(exc: Exception) -> workloads.Outcome:
    return workloads.Outcome("error", True, None, repr(exc))


def _check(inp: workloads.Input, out) -> workloads.Outcome:
    try:
        return inp.check(out)
    except Exception as exc:  # a malformed output fails its check
        return workloads.Outcome("error", True, None, f"check: {exc!r}")


def measure(inputs, seconds: float, rng: random.Random, speed: SpeedLog):
    """Interleaved rounds: ({id: [wall s]}, {id: Outcome}).

    Round 0 times every input.  Later rounds, each in a fresh seeded order,
    time an input again when its median still fits before the deadline, or
    when its samples so far plus one more fit in its share of ``seconds``,
    so that cheap inputs get repeats even when dear ones overran the run.
    An input's first output is checked as soon as it is timed and is not
    kept, so that no output outlives the next call.  An input that raised
    is not run again.
    """
    samples: dict[str, list[float]] = {i.id: [] for i in inputs}
    outcomes: dict[str, workloads.Outcome] = {}
    raised: set[str] = set()
    share = seconds / len(inputs)
    deadline = time.perf_counter() + seconds
    rnd = 0
    while True:
        ran = False
        for inp in _round_order(inputs, rng):
            s = samples[inp.id]
            if rnd:
                if inp.id in raised or len(s) >= MAX_SAMPLES:
                    continue
                est = statistics.median(s)
                if time.perf_counter() + est > deadline and sum(s) + est > share:
                    continue
            try:
                out, wall = timed(inp.run, speed)
            except Exception as exc:  # a failed input; it counts in failed_share
                outcomes[inp.id] = _error(exc)
                raised.add(inp.id)
                continue
            s.append(wall)
            if inp.id not in outcomes:
                outcomes[inp.id] = _check(inp, out)
            ran = True
        rnd += 1
        if not ran:
            return samples, outcomes


def measure_traced(inputs, tracer: tracing.Tracer, speed: SpeedLog):
    """Each input once untraced and once traced, alternating which goes first:
    ({id: (untraced s, traced s)}, {id: Outcome of the first output})."""
    pairs: dict[str, tuple[float, float]] = {}
    outcomes: dict[str, workloads.Outcome] = {}
    for k, inp in enumerate(sorted(inputs, key=lambda i: i.stage)):
        got: dict[bool, float] = {}
        for traced in ((False, True) if k % 2 else (True, False)):
            try:
                if traced:
                    with tracer:
                        tracer.input_id = inp.id
                        out, got[traced] = timed(inp.run, speed)
                else:
                    out, got[traced] = timed(inp.run, speed)
            except Exception as exc:  # a failed input; it counts in failed_share
                outcomes[inp.id] = _error(exc)
                break
            if inp.id not in outcomes:
                outcomes[inp.id] = _check(inp, out)
        if len(got) == 2:
            pairs[inp.id] = (got[False], got[True])
    return pairs, outcomes


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    values beyond it; the maximum (percentile 100) when there are fewer."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def workload_reason(name: str) -> str:
    try:
        spec = json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == name), "")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """One benchmark run; returns the run record (``result`` is the last line)."""
    workdir = OUT_DIR / f"work-{os.getpid()}"
    speed, setup_speed = SpeedLog(), SpeedLog()
    try:
        if trace:
            tracer = tracing.Tracer()
            latmap = source.import_latmap()
            with tracer:
                tracer.input_id = "setup"
                inputs = workloads.build(name, latmap, seed, workdir, small)
            pairs, outcomes = measure_traced(inputs, tracer, speed)
            samples = {k: [plain] for k, (plain, _) in pairs.items()}
            setups = []
        else:
            setups = [fresh_setup(name, seed, workdir, small, setup_speed)
                      for _ in range(SETUP_REPS)]
            inputs = setups[-1][0]
            samples, outcomes = measure(inputs, seconds, random.Random(seed), speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scale = speed.scale()
    rows = []
    for inp in inputs:
        o, s = outcomes[inp.id], samples.get(inp.id, [])
        wall_ms = statistics.median(s) * 1e3 if s else None
        rows.append({
            "input": inp.id, "ms": wall_ms * scale if s else None, "wall_ms": wall_ms,
            "samples": len(s), "verdict": o.verdict, "lattices": o.lattices,
            "failed": o.failed, "note": o.note,
        })
    attempted, failed = len(rows), sum(r["failed"] for r in rows)
    ms = [r["ms"] for r in rows if r["ms"] is not None]
    tail_ms, tail_pct = tail(ms) if ms else (0.0, 100.0)
    readings_ms = [r * 1e3 for _, r in speed.readings]
    summary = {
        "total_s": sum(ms) / 1e3,
        "total_wall_s": sum(ms) / 1e3 / scale,
        "latency_p50_ms": statistics.median(ms) if ms else 0.0,
        "latency_tail_ms": tail_ms,
        "latency_tail_pct": tail_pct,
        "latency_samples": len(ms),
        "failed_share": failed / attempted,
        "lattices": sum(r["lattices"] or 0 for r in rows),
        "setup_s": (statistics.median(w for _, w in setups) * setup_speed.scale()
                    if setups else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_changes": sum(r["note"] == "verdict change" for r in rows),
        "speed_loop_ms": [min(readings_ms), speed.median() * 1e3, max(readings_ms)],
        "speed_readings": len(readings_ms),
    }
    if trace:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = sum(t - p for p, t in pairs.values()) * scale
        units = {k: "s" if k.endswith("_s") else "count" for k in metrics}
        units["mapper.map.solved_ratio"] = "ratio"
    else:
        keys = ("total_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "setup_s")
        metrics = {k: summary[k] for k in keys}
        units = {"total_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
    record = {
        "git_sha": source.git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": name,
        "why": workload_reason(name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nominal_loop_ms": NOMINAL_LOOP_S * 1e3,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {"record": record, "summary": summary, "rows": rows, "result": result}
    if trace:
        report["spans"] = [s.as_dict() for s in tracer.spans]
    return report


def print_report(report: dict) -> None:
    print("input\tms\twall_ms\tsamples\tverdict\tlattices\tfailed\tnote")
    for r in report["rows"]:
        ms, wall = ("-", "-") if r["ms"] is None else (f"{r['ms']:.3f}", f"{r['wall_ms']:.3f}")
        lat = "-" if r["lattices"] is None else r["lattices"]
        print(f"{r['input']}\t{ms}\t{wall}\t{r['samples']}\t{r['verdict']}\t{lat}"
              f"\t{int(r['failed'])}\t{r['note']}")
    s = report["summary"]
    print(f"total_s {s['total_s']:.4f} s (wall {s['total_wall_s']:.4f} s;"
          f" speed loop min/median/max {s['speed_loop_ms']} ms)")
    print(f"latency_p50_ms {s['latency_p50_ms']:.4f} ms")
    print(f"latency_tail_ms {s['latency_tail_ms']:.4f} ms "
          f"(p{s['latency_tail_pct']:.1f} of {s['latency_samples']} inputs)")
    print(f"failed_share {s['failed_share']:.4f} ({report['result']['failed']}"
          f" of {report['result']['attempted']}; verdict changes {s['verdict_changes']})")
    print(f"lattices {s['lattices']} count")
    if s["setup_s"] is not None:
        print(f"setup_s {s['setup_s']:.4f} s (median of {SETUP_REPS})")
    print(f"peak_rss_mb {s['peak_rss_mb']:.1f} MB")
    print("record " + json.dumps(report["record"]))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(report) + "\n")
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
