"""End-to-end exercises of the command-line entry point."""

import importlib
import importlib.metadata
from pathlib import Path

import pytest

from latmap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paths_to_stdout(capsys):
    code, out, err = run(capsys, "paths", "--dim", "3", "3")
    assert code == 0
    assert out.splitlines()[0] == "9 9"
    assert "paths: 9" in err


def test_paths_to_file(tmp_path, capsys):
    target = tmp_path / "p.txt"
    code, out, _ = run(capsys, "paths", "--dim", "2", "2", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "2 4"


def test_solve_summary(tmp_path, capsys):
    lat = tmp_path / "g.lat"
    lat.write_text("3 3\n0 101 1\n1 1 998\n2 2 101\n")
    code, out, err = run(capsys, "solve", str(lat))
    assert code == 0
    assert out.splitlines()[0] == "2"
    assert err.strip().endswith("product terms: 2")


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.lat")
    assert code == 66
    assert "error:" in err


def test_genlib_deterministic(tmp_path, capsys):
    a = tmp_path / "a.lib"
    b = tmp_path / "b.lib"
    run(capsys, "genlib", "--dim", "3", "3", "--trials", "5", "--seed", "9",
        "-o", str(a))
    run(capsys, "genlib", "--dim", "3", "3", "--trials", "5", "--seed", "9",
        "-o", str(b))
    assert a.read_text() == b.read_text()


def test_genlib_paper_style(capsys):
    code, out, _ = run(capsys, "genlib", "--dim", "2", "2", "--trials", "1",
                       "--seed", "0", "--paper-style")
    assert code == 0
    assert "-----" in out
    assert "# seed 0" in out


def test_map_solution(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("3\n2 997 999\n4 997 5 4 998\n2 1000 5\n")
    code, out, _ = run(capsys, "map", str(fn), "--dim", "3", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SOLUTION FOUND:"
    assert lines[1].startswith("ASSG v0=")
    assert lines[-1].startswith("ORDER: ")


def test_map_writes_lattice_that_verifies(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("2\n2 0 1\n1 2\n")
    lat = tmp_path / "sol.lat"
    code, _, _ = run(capsys, "map", str(fn), "--dim", "3", "3", "-o", str(lat))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(lat), str(fn))
    assert code == 0
    assert out.strip() == "equivalent"


def test_map_no_solution_exit_code(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("1\n3 0 1 2\n")
    code, out, _ = run(capsys, "map", str(fn), "--dim", "2", "2")
    assert code == 1
    assert out.strip() == "NO SOLUTION"


def test_map_inconclusive_exit_code(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text(
        "8\n4 998 996 1 1000\n3 3 1 4\n3 3 996 999\n3 998 996 999\n"
        "3 3 1 1000\n3 3 0 4\n3 3 0 999\n2 998 3\n"
    )
    code, out, _ = run(capsys, "map", str(fn), "--dim", "3", "3",
                       "--time-limit", "0.01")
    assert code == 2
    assert "INCONCLUSIVE" in out


@pytest.mark.parametrize("command", ["map", "decompose", "synth"])
@pytest.mark.parametrize("flag,value", [
    ("--max-placements", "0"),
    ("--time-limit", "-1"),
    ("--time-limit", "0"),
    ("--time-limit", "inf"),
    ("--time-limit", "nan"),
])
def test_budget_out_of_range_is_usage_error(tmp_path, capsys, command, flag, value):
    fn = tmp_path / "f.fn"
    fn.write_text("1\n2 0 1\n")
    argv = [command, str(fn), "--dim", "3", "3", flag, value]
    if command != "map":
        argv += ["--outdir", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
def test_time_limit_variable_out_of_range_is_usage_error(
    tmp_path, capsys, monkeypatch, value
):
    monkeypatch.setenv("LATMAP_TIME_LIMIT", value)
    fn = tmp_path / "f.fn"
    fn.write_text("1\n2 0 1\n")
    code, out, err = run(capsys, "map", str(fn), "--dim", "3", "3")
    assert code == 64
    assert out == ""
    assert err.startswith("error: time_limit") and "Traceback" not in err


def test_map_pretty(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("1\n2 0 999\n")
    code, out, _ = run(capsys, "map", str(fn), "--dim", "2", "2", "--pretty")
    assert code == 0
    assert "v0=" in out
    assert "1000" not in out.split("\n")[1]


def test_map_with_path_file(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    run(capsys, "paths", "--dim", "3", "3", "-o", str(pfile))
    fn = tmp_path / "f.fn"
    fn.write_text("1\n2 0 1\n")
    code, out, _ = run(capsys, "map", str(fn), "--paths", str(pfile))
    assert code == 0
    assert out.startswith("SOLUTION FOUND:")


def test_map_requires_dim_or_paths(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("1\n1 0\n")
    with pytest.raises(SystemExit):
        main(["map", str(fn)])


@pytest.mark.parametrize("extra", [
    ["--dim", "3", "3", "--bogus"],
    [],
    ["--dim", "x", "3"],
    ["--dim", "3", "3", "--max-orders", "5"],
])
def test_usage_error_exits_64(tmp_path, capsys, extra):
    """argparse's own exit code 2 would read as inconclusive."""
    fn = tmp_path / "f.fn"
    fn.write_text("1\n2 0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["map", str(fn), *extra])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["map", "--help"])
    assert exc.value.code == 0
    assert "--max-placements" in capsys.readouterr().out


@pytest.mark.parametrize("stages", ["0", "-1"])
def test_decompose_max_stages_below_one_is_usage_error(tmp_path, capsys, stages):
    fn = tmp_path / "f.fn"
    fn.write_text("3\n2 0 1\n2 2 3\n2 4 998\n")
    code, out, err = run(capsys, "decompose", str(fn), "--dim", "2", "2",
                         "--outdir", str(tmp_path / "out"), "--max-stages", stages)
    assert code == 64
    assert out == ""
    assert err.startswith("error: max_stages") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_decompose_outputs(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("2\n3 0 1 2\n3 1000 999 998\n")
    outdir = tmp_path / "split"
    code, _, err = run(capsys, "decompose", str(fn), "--dim", "3", "3",
                       "--outdir", str(outdir))
    assert code == 0
    assert (outdir / "sub1.lat").exists()
    assert (outdir / "sub2.lat").exists()
    assert "terms" in (outdir / "manifest.txt").read_text()
    assert "decomposed into" in err


def test_decompose_negative(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("2\n3 0 1 2\n3 1000 999 998\n")
    code, out, _ = run(capsys, "decompose", str(fn), "--dim", "2", "2",
                       "--outdir", str(tmp_path / "x"))
    assert code == 1
    assert out.strip() == "NO SOLUTION"


def test_synth_plan_and_verify(tmp_path, capsys):
    fn = tmp_path / "q.fn"
    fn.write_text("3\n7 0 1 2 3 4 5 6\n3 0 999 4\n4 1000 2 3 995\n")
    outdir = tmp_path / "plan"
    code, _, err = run(capsys, "synth", str(fn), "--dim", "3", "3",
                       "--outdir", str(outdir), "--verify")
    assert code == 0
    assert "plan: 3 lattices" in err
    assert "verify: equivalent" in err
    assert (outdir / "aux.txt").read_text().startswith("26 ")
    assert (outdir / "lattice1.lat").exists()
    assert (outdir / "manifest.txt").exists()


def test_verify_negative(tmp_path, capsys):
    lat = tmp_path / "g.lat"
    lat.write_text("2 2\n0 100\n101 100\n")
    fn = tmp_path / "f.fn"
    fn.write_text("1\n1 1\n")
    code, out, _ = run(capsys, "verify", str(lat), str(fn))
    assert code == 1
    assert out.strip() == "NOT equivalent"


def test_verify_beyond_oracle_bound_is_usage_error(tmp_path, capsys):
    lat = tmp_path / "g.lat"
    lat.write_text("2 2\n0 100\n101 100\n")
    fn = tmp_path / "f.fn"
    fn.write_text("21\n" + "".join(f"1 {v}\n" for v in range(21)))
    code, out, err = run(capsys, "verify", str(lat), str(fn))
    assert code == 64
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_invalid_function_file(tmp_path, capsys):
    fn = tmp_path / "bad.fn"
    fn.write_text("1\n1 500\n")
    code, _, err = run(capsys, "map", str(fn), "--dim", "2", "2")
    assert code == 64
    assert "error:" in err


@pytest.mark.parametrize("command", ["map", "decompose", "synth"])
def test_too_many_variables_is_usage_error(tmp_path, capsys, command):
    """21 variables exceed the truth-table bound: a usage error before any
    table is built, not a traceback."""
    fn = tmp_path / "wide.fn"
    fn.write_text("21\n" + "".join(f"1 {v}\n" for v in range(21)))
    extra = [] if command == "map" else ["--outdir", str(tmp_path / "out")]
    code, out, err = run(capsys, command, str(fn), "--dim", "2", "2", *extra)
    assert code == 64
    assert out == ""
    assert "error: 21 variables exceed" in err
    assert not (tmp_path / "out").exists()


def _installed_distribution():
    try:
        return importlib.metadata.distribution("latmap")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(
    _installed_distribution() is None, reason="no installed latmap distribution"
)
def test_console_script_installed():
    import shutil

    assert shutil.which("latmap") is not None
    scripts = [
        ep.value
        for ep in _installed_distribution().entry_points
        if ep.group == "console_scripts" and ep.name == "latmap"
    ]
    assert scripts == ["latmap.cli:main"]


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"latmap": "latmap.cli:main"}
    module, _, attr = scripts["latmap"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
