"""End-to-end exercises of the command-line entry point."""

import importlib
import importlib.metadata
import io
import time
from pathlib import Path

import pytest

from latmap.cli import main
from latmap.codes import serialize_function
from latmap.mapper import SearchBudget

from lattice_goldens import DECOMP_EVEN8, MAP_EX1


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


def test_map_path_file_checked_against_dim(tmp_path, capsys):
    """With --dim, a path file of another cell count is a usage error; the
    file's own shape is used only without --dim."""
    pfile = tmp_path / "p.txt"
    run(capsys, "paths", "--dim", "2", "2", "-o", str(pfile))
    fn = tmp_path / "f.fn"
    fn.write_text("2\n1 0\n1 1\n")
    code, out, err = run(capsys, "map", str(fn), "--paths", str(pfile), "--dim", "3", "3")
    assert (code, out) == (64, "")
    assert err.startswith("error: ")
    code, out, _ = run(capsys, "map", str(fn), "--paths", str(pfile), "--dim", "2", "2")
    assert code == 0 and out.startswith("SOLUTION FOUND:")


@pytest.mark.parametrize("paths_text,extra", [
    ("1 4\n1 0\n", ["--dim", "2", "2"]),
    ("1 4\n1 0\n", []),
    ("1 4\n0\n", ["--dim", "2", "2"]),
])
def test_map_path_file_not_crossing_is_usage_error(tmp_path, capsys, paths_text, extra):
    """A path must run from the top row to the bottom row; cell 0 alone
    does not on 2x2 (nor on 4x1, the shape read from the file), and a
    path with no cells never does."""
    pfile = tmp_path / "p.txt"
    pfile.write_text(paths_text)
    fn = tmp_path / "f.fn"
    fn.write_text("1\n1 0\n")
    code, out, err = run(capsys, "map", str(fn), "--paths", str(pfile), *extra)
    assert (code, out) == (64, "")
    assert err.startswith("error: ")


def test_map_path_file_repeating_a_cell_is_usage_error(tmp_path, capsys):
    """Path (0, 3, 0, 3) on 2x3 visits cells 0 and 3 twice.  Were it read,
    its cell mask would carry into cells 1 and 4, and the grid found for
    abc on it would not realize abc."""
    pfile = tmp_path / "p.txt"
    pfile.write_text("1 6\n4 0 3 0 3\n")
    fn = tmp_path / "f.fn"
    fn.write_text("1\n3 0 1 2\n")
    grid = tmp_path / "g.lat"
    code, out, err = run(capsys, "map", str(fn), "--paths", str(pfile),
                         "--dim", "2", "3", "-o", str(grid))
    assert (code, out) == (64, "")
    assert err.startswith("error: the file does not list the irredundant paths of a 2x3"
                          " lattice: path (0, 3, 0, 3) repeats a cell")
    assert not grid.exists()


@pytest.mark.parametrize("paths_text,fn_text,extra", [
    # the three columns of 3x3: the grid found for bd + abc read bc on 0-3-4-7
    ("3 9\n3 0 3 6\n3 1 4 7\n3 2 5 8\n", "2\n2 1 3\n3 0 1 2\n", []),
    # no paths, with the shape read as 4x1 and given as 2x2
    ("0 4\n", "1\n1 0\n", []),
    ("0 4\n", "1\n1 0\n", ["--dim", "2", "2"]),
    # path 0-2 twice: the unused copy showed as a saved escape path
    ("3 4\n2 0 2\n2 0 2\n2 1 3\n", "1\n1 0\n", []),
], ids=["columns-3x3", "empty", "empty-2x2", "repeated"])
def test_map_path_file_not_listing_the_lattice_paths_is_usage_error(
    tmp_path, capsys, paths_text, fn_text, extra
):
    """A path file must list every irredundant path of its lattice once;
    a part of them, none or a repeat used to give a wrong verdict."""
    pfile, fn, grid = tmp_path / "p.txt", tmp_path / "f.fn", tmp_path / "g.lat"
    pfile.write_text(paths_text)
    fn.write_text(fn_text)
    code, out, err = run(capsys, "map", str(fn), "--paths", str(pfile), *extra, "-o", str(grid))
    assert (code, out) == (64, "")
    assert err.startswith("error: ")
    assert not grid.exists()


@pytest.mark.parametrize("r,c,fn_text", [
    (2, 2, "2\n1 0\n1 1\n"),
    (3, 3, serialize_function(MAP_EX1)),
    (3, 4, serialize_function(DECOMP_EVEN8[:4])),
], ids=["2x2", "3x3", "3x4"])
def test_map_path_file_answers_as_dim(tmp_path, capsys, r, c, fn_text):
    """``map --paths`` on the file ``paths`` writes, its path lines in
    reverse order and each path reversed, prints what ``map --dim`` prints."""
    pfile, fn = tmp_path / "p.txt", tmp_path / "f.fn"
    run(capsys, "paths", "--dim", str(r), str(c), "-o", str(pfile))
    head, *lines = pfile.read_text().splitlines()
    body = [" ".join(ln.split()[:1] + ln.split()[:0:-1]) for ln in reversed(lines)]
    pfile.write_text("\n".join([head, *body]) + "\n")
    fn.write_text(fn_text)
    by_dim = run(capsys, "map", str(fn), "--dim", str(r), str(c))
    assert run(capsys, "map", str(fn), "--paths", str(pfile)) == by_dim


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
    ["--dim", "3", "3", "--max-placements", "5"],
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
    ("1\n1 0\n", ["map", "{fn}", "--paths", "{file}"]),  # bad path header
    # a step of 3 cells on a 5-cell grid: no width divides it
    ("1 5\n2 0 3\n", ["map", "{fn}", "--paths", "{file}"]),
    ("2\n0 1\n1 0\n", ["verify", "{file}", "{fn}"]),  # bad dimension line
    ("", ["genlib", "--dim", "2", "2", "--trials", "0"]),
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
