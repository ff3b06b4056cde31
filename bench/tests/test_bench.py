"""Tests of the benchmark itself: oracle, span arithmetic, draws, smoke runs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import source  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((source.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def latmap():
    # the latmap modules currently loaded; smoke runs import them anew
    return source.import_latmap()


def _solve_table(latmap, rows, cols, codes, universe):
    sop = latmap.solve_lattice(latmap.LatticeAssignment(latmap.LatticeDim(rows, cols), codes))
    return oracle.sop_table(sop, universe)


def test_oracle_matches_solver_on_every_2x2_grid(latmap):
    lits = (0, 1, 1000, 999, oracle.ZERO, oracle.ONE)
    for codes in itertools.product(lits, repeat=4):
        universe = sorted(oracle.variables_of(codes))
        assert oracle.lattice_table(2, 2, codes, universe) == _solve_table(latmap, 2, 2, codes, universe)


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
def test_oracle_matches_solver_on_random_grids(latmap, rows, cols):
    rng = random.Random(rows * 10 + cols)
    lits = [0, 1, 2, 3, 1000, 999, 998, 997, oracle.ZERO, oracle.ONE]
    for _ in range(20):
        codes = tuple(rng.choice(lits) for _ in range(rows * cols))
        universe = sorted(oracle.variables_of(codes))
        assert oracle.lattice_table(rows, cols, codes, universe) == _solve_table(
            latmap, rows, cols, codes, universe)


def test_oracle_reads_a_known_grid():
    # a / 1 / b down the left column, c down the middle: a b + c (3x3)
    codes = (0, 2, oracle.ZERO, oracle.ONE, 2, oracle.ZERO, 1, 2, oracle.ZERO)
    assert oracle.grid_realizes(3, 3, codes, [{0, 1}, {2}])
    assert not oracle.grid_realizes(3, 3, codes, [{0}, {2}])


def _span(sid, name, start, end, parent=None, **attrs):
    return tracing.Span(sid, name, start, end, parent, "x", attrs)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, "cli", 0.0, 10.0),
        _span(1, "synth", 1.0, 4.0, 0),
        _span(2, "mapper.map", 2.0, 3.0, 1, status="solved", key="k"),
        _span(3, "decompose", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_count_repeats_within_one_top_level_call():
    spans = [
        _span(0, "synth", 0.0, 10.0, lattices_out=2),
        _span(1, "mapper.map", 0.5, 1.0, 0, status="no-solution", key="a"),
        _span(2, "decompose", 1.0, 5.0, 0),
        _span(3, "mapper.map", 1.5, 2.0, 2, status="solved", key="b"),
        _span(4, "mapper.map", 2.0, 3.0, 2, status="solved", key="a"),
        _span(5, "mapper.map", 11.0, 12.0, None, status="solved", key="a"),
    ]
    m = tracing.layer_metrics(spans)
    assert m["mapper.map.calls"] == 4
    assert (m["mapper.map.solved"], m["mapper.map.no_solution"]) == (3, 1)
    assert m["mapper.map.no_solution_s"] == pytest.approx(0.5)
    assert m["mapper.map.solved_ratio"] == pytest.approx(0.75)
    assert (m["synth.map_calls"], m["synth.repeat_maps"]) == (3, 1)
    assert (m["decompose.map_calls"], m["decompose.repeat_maps"]) == (2, 1)
    assert m["synth.decompose_calls"] == 1
    assert m["synth.lattices_out"] == 2
    assert m["synth.self_s"] == pytest.approx(10.0 - 0.5 - 4.0)
    assert m["decompose.self_s"] == pytest.approx(4.0 - 1.5)


def test_tracer_rebinds_every_importer_and_restores(latmap):
    original = latmap.mapper.map_function
    tracer = tracing.Tracer()
    with tracer:
        assert latmap.decompose.map_function is latmap.mapper.map_function
        assert latmap.synth.map_function is not original
        latmap.decompose.decompose_two(
            [frozenset({0}), frozenset({1})], latmap.LatticeDim(2, 2))
    assert latmap.mapper.map_function is original
    assert latmap.decompose.map_function is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "decompose" and "paths.enumerate" in names
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_draw_is_seeded_and_keeps_stratum_counts():
    rng = random.Random(0)
    costs = {str(i): rng.lognormvariate(0, 2) for i in range(300)}
    a = workloads.draw(costs, 40, random.Random(1), keep_above=20.0)
    assert a == workloads.draw(costs, 40, random.Random(1), keep_above=20.0)
    b = workloads.draw(costs, 40, random.Random(2), keep_above=20.0)
    assert a != b
    heavy = {k for k, c in costs.items() if c > 20.0}
    assert heavy <= set(a) and heavy <= set(b)
    assert len(a) == len(b) == 40 + len(heavy)
    # equal counts per stratum keep the cost of any two draws close
    assert sum(costs[k] for k in a) == pytest.approx(sum(costs[k] for k in b), rel=0.1)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(20)]) == (9.0, 50.0)
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_speed_median_weighs_readings_by_the_time_they_cover():
    log = run.SpeedLog()
    # a burst of short calls read 1.0 for one second, then a 40 s call is
    # bracketed by readings of 2.0: the run ran at 2.0 most of the time
    log.readings = [(i * 0.05, 1.0) for i in range(21)] + [(21.0, 2.0), (41.0, 2.0)]
    assert log.median() == 2.0
    log.readings = [(0.0, 3.0)]
    assert log.median() == 3.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_metric(name):
    report = run.run_workload(name, seed=3, seconds=0.2, trace=False, small=True)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.run_workload(name, seed=3, seconds=0.2, trace=True, small=True)
    assert traced["result"]["correct"]
    assert set(traced["result"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        units = {**result["metrics"], **traced["result"]["metrics"]}
        assert units[m["name"]]["unit"] == m["unit"]


def test_pipeline_check_catches_a_wrong_plan(latmap, tmp_path):
    inputs = workloads.pipeline(latmap, 1, tmp_path, small=True)
    (synth,) = [i for i in inputs if i.id == "synth/SYNTH_Q"]
    code, outdir = synth.run()
    assert not synth.check((code, outdir)).failed
    (outdir / "lattice1.lat").write_text("3 3\n" + "100 100 100\n" * 3)
    assert synth.check((code, outdir)).failed


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(source.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "forward", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
