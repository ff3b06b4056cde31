"""End-to-end exercises of the command-line entry point."""

import importlib
import importlib.metadata
import io
import time
from pathlib import Path

import pytest

import latmap.mapper
import latmap.synth
from latmap.cli import main
from latmap.codes import serialize_function
from latmap.grid import LatticeDim
from latmap.mapper import SearchBudget

from lattice_goldens import DECOMP_EVEN8, SYNTH_Q
from test_synth import zeroed_aux_lattices


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


def test_map_lattice_to_stdout_follows_the_solution(tmp_path, capsys):
    """``-o -`` writes the lattice file to stdout after the solution."""
    fn = tmp_path / "ab.fn"
    fn.write_text("1\n2 0 1\n")
    code, out, _ = run(capsys, "map", str(fn), "--dim", "2", "2", "-o", "-")
    solution, lattice = out.split("ORDER: 1\n")
    assert code == 0
    assert solution.startswith("SOLUTION FOUND:\n")
    assert lattice.splitlines()[0] == "2 2"


def test_map_lattice_file_not_writable_prints_no_solution(tmp_path, capsys):
    """The lattice file is written before the solution is printed, so a
    write that fails leaves stdout empty: exit 66 with one error line."""
    fn = tmp_path / "ab.fn"
    fn.write_text("1\n2 0 1\n")
    code, out, err = run(capsys, "map", str(fn), "--dim", "2", "2",
                         "-o", str(tmp_path / "nodir" / "x.lat"))
    assert (code, out) == (66, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_time_limit_variable_is_ignored(tmp_path, capsys, monkeypatch):
    """``--time-limit`` is the one spelling of the budget: the
    LATMAP_TIME_LIMIT environment variable is read by nothing."""
    monkeypatch.setenv("LATMAP_TIME_LIMIT", "nan")
    fn = tmp_path / "f.fn"
    fn.write_text("1\n2 0 1\n")
    code, out, _ = run(capsys, "map", str(fn), "--dim", "3", "3")
    assert code == 0
    assert out.startswith("SOLUTION FOUND:")


def test_map_pretty(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("1\n2 0 999\n")
    code, out, _ = run(capsys, "map", str(fn), "--dim", "2", "2", "--pretty")
    assert code == 0
    assert "v0=" in out
    assert "1000" not in out.split("\n")[1]


def test_map_requires_dim(tmp_path, capsys):
    fn = tmp_path / "f.fn"
    fn.write_text("1\n1 0\n")
    with pytest.raises(SystemExit):
        main(["map", str(fn)])


@pytest.mark.parametrize("extra", [
    ["--dim", "3", "3", "--bogus"],
    [],
    ["--dim", "x", "3"],
    ["--dim", "3", "3", "--max-orders", "5"],
    ["--dim", "3", "3", "--max-placements", "5"],
    ["--dim", "3", "3", "--paths", "p.txt"],
])
def test_usage_error_exits_64(tmp_path, capsys, extra):
    """argparse's own exit code 2 would read as inconclusive.  A flag that
    ``map`` lacks, a removed one included, is named as unrecognized."""
    fn = tmp_path / "f.fn"
    fn.write_text("1\n2 0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["map", str(fn), *extra])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err
    if len(extra) > 3:  # a flag after --dim R C
        assert f"unrecognized arguments: {extra[3]}" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["map", "--help"])
    assert exc.value.code == 0
    assert "--time-limit" in capsys.readouterr().out


@pytest.mark.parametrize("command,flag,value", [
    ("decompose", "--max-stages", "0"),
    ("decompose", "--max-stages", "-1"),
    ("decompose", "--max-stages", "1"),
    ("decompose", "--max-placements", "5"),
    ("synth", "--max-placements", "5"),
])
def test_stage_and_placement_counts_are_usage_errors(tmp_path, capsys, command, flag, value):
    """The time limit is the only budget: a stage or placement count is an
    unknown flag, rejected before any output directory is made."""
    fn = tmp_path / "f.fn"
    fn.write_text("3\n2 0 1\n2 2 3\n2 4 998\n")
    with pytest.raises(SystemExit) as exc:
        main([command, str(fn), "--dim", "2", "2", "--outdir", str(tmp_path / "out"),
              flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    assert f"error: unrecognized arguments: {flag}" in captured.err
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
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["decompose", "synth"])
def test_outdir_naming_a_file_is_io_error(tmp_path, capsys, monkeypatch, command):
    """a + b splits and plans on 2x2, but its output directory cannot be
    made where a file stands, nor below one: exit 66 with one error line,
    found before anything is mapped."""
    searches = []
    monkeypatch.setattr(latmap.mapper._Search, "_try_terms",
                        lambda self, *args: searches.append(args))
    fn = tmp_path / "ab.fn"
    fn.write_text("2\n1 0\n1 1\n")
    for outdir, reason in ((fn, "File exists"), (fn / "sub" / "dir", "Not a directory")):
        code, out, err = run(capsys, command, str(fn), "--dim", "2", "2",
                             "--outdir", str(outdir))
        assert (code, out, searches) == (66, "", []), outdir
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err and "Traceback" not in err


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


def test_synth_verify_reads_aux_lattices(tmp_path, capsys, monkeypatch):
    """--verify evaluates the auxiliary lattice too: with its cells all 0,
    the plan's unchanged output lattices no longer compute SYNTH_Q."""
    plan = zeroed_aux_lattices(latmap.synth.synthesize(SYNTH_Q, LatticeDim(3, 3)))
    monkeypatch.setattr(latmap.synth, "synthesize", lambda *args: plan)
    fn = tmp_path / "q.fn"
    fn.write_text(serialize_function(SYNTH_Q))
    outdir = tmp_path / "plan"
    code, _, err = run(capsys, "synth", str(fn), "--dim", "3", "3",
                       "--outdir", str(outdir), "--verify")
    assert code == 1
    assert "verify: NOT equivalent" in err
    assert (outdir / "lattice1.lat").read_text() == "3 3\n" + "100 100 100\n" * 3


def test_synth_on_one_row_lattices(tmp_path, capsys):
    """a + b fits the one path of 1x2; a 2-literal term fits no path of a
    one-row lattice and needs a chunk that shortens nothing."""
    fn = tmp_path / "ab.fn"
    fn.write_text("2\n1 0\n1 1\n")
    code, _, err = run(capsys, "synth", str(fn), "--dim", "1", "2",
                       "--outdir", str(tmp_path / "plan"), "--verify")
    assert code == 0
    assert "plan: 1 lattice\n" in err
    assert "verify: equivalent" in err
    fn.write_text("1\n2 0 1\n")
    code, _, err = run(capsys, "synth", str(fn), "--dim", "1", "2",
                       "--outdir", str(tmp_path / "long"))
    assert code == 64
    assert err == "error: longest-path bound must be >= 2\n"


def test_verify_negative(tmp_path, capsys):
    lat = tmp_path / "g.lat"
    lat.write_text("2 2\n0 100\n101 100\n")
    fn = tmp_path / "f.fn"
    fn.write_text("1\n1 1\n")
    code, out, _ = run(capsys, "verify", str(lat), str(fn))
    assert code == 1
    assert out.strip() == "NOT equivalent"


def test_verify_beyond_the_path_guard(tmp_path, capsys):
    """verify enumerates no paths, so a 9x9 grid, beyond the 8x8 guard of
    path enumeration that solve keeps, checks like any other."""
    lat = tmp_path / "g.lat"
    lat.write_text("9 9\n" + "0 100 100 100 100 100 100 100 100\n" * 9)
    fn = tmp_path / "a.fn"
    fn.write_text("1\n1 0\n")
    code, out, _ = run(capsys, "verify", str(lat), str(fn))
    assert code == 0
    assert out.strip() == "equivalent"
    code, out, err = run(capsys, "solve", str(lat))
    assert code == 64
    assert out == "" and "exceeds the 8 guard" in err


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


@pytest.mark.parametrize("text,argv", [
    ("\n", ["map", "{file}", "--dim", "2", "2"]),  # empty function file
    ("x\n1 0\n", ["map", "{file}", "--dim", "2", "2"]),  # bad count line
    ("-1\n", ["map", "{file}", "--dim", "2", "2"]),  # negative count
    ("1\n1 a\n", ["map", "{file}", "--dim", "2", "2"]),  # non-integer token
    # The last two ids are spelled out so they keep their names from when
    # the list held two more cases.
    pytest.param("2\n0 1\n1 0\n", ["verify", "{file}", "{fn}"],  # bad dimension line
                 id="2\n0 1\n1 0\n-argv6"),
    pytest.param("", ["genlib", "--dim", "2", "2", "--trials", "0"], id="-argv7"),
])
def test_malformed_input_is_usage_error(tmp_path, capsys, text, argv):
    """The input file holds ``text``; ``fn`` is a well-formed function."""
    target, fn = tmp_path / "input", tmp_path / "ok.fn"
    target.write_text(text)
    fn.write_text("1\n1 0\n")
    code, out, err = run(capsys, *(a.format(file=target, fn=fn) for a in argv))
    assert (code, out) == (64, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_decompose_inconclusive(tmp_path, capsys, monkeypatch):
    """a + b + c + d on 2x2 with its deadline already past ends the run
    inconclusive, with no output directory."""
    monkeypatch.setattr(SearchBudget, "deadline", lambda self: time.monotonic() - 1)
    fn = tmp_path / "f.fn"
    fn.write_text("4\n1 0\n1 1\n1 2\n1 3\n")
    outdir = tmp_path / "split"
    code, out, _ = run(capsys, "decompose", str(fn), "--dim", "2", "2",
                       "--time-limit", "60", "--outdir", str(outdir))
    assert (code, out) == (2, "INCONCLUSIVE (budget)\n")
    assert not outdir.exists()


def test_synth_inconclusive(tmp_path, capsys, monkeypatch):
    """A synth run whose deadline is already past ends inconclusive, with no
    output directory."""
    monkeypatch.setattr(SearchBudget, "deadline", lambda self: time.monotonic() - 1)
    fn = tmp_path / "hard.fn"
    fn.write_text(serialize_function(DECOMP_EVEN8))
    outdir = tmp_path / "plan"
    code, out, _ = run(capsys, "synth", str(fn), "--dim", "3", "3",
                       "--time-limit", "60", "--outdir", str(outdir))
    assert (code, out) == (2, "INCONCLUSIVE (budget)\n")
    assert not outdir.exists()


@pytest.mark.parametrize("text", [
    "2\n1 0\n1 0\n",  # a + a: the repeat is absorbed
    "2\n2 0 1000\n1 0\n",  # a a' + a: the first term cancels
])
def test_normalized_input_warns(tmp_path, capsys, text):
    fn = tmp_path / "f.fn"
    fn.write_text(text)
    code, out, err = run(capsys, "map", str(fn), "--dim", "2", "2")
    assert code == 0
    assert out.startswith("SOLUTION FOUND:")
    assert err == "warning: input function was normalized/absorbed\n"


def test_function_read_from_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2 0 1\n"))
    code, out, err = run(capsys, "map", "-", "--dim", "2", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "ASSG v0=0 v1=100 v2=1 v3=100"


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
