import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsdq
from nsdq import scenes
from nsdq.experiments import (
    ExperimentRow,
    fit_slope,
    rows_to_csv,
    rows_to_json,
    run_duct,
    run_ellipsoid,
    run_example1,
    run_sphere_scatter,
    sphere_table,
)
from nsdq.paths import PathError
from nsdq.polar import OuterPlan, integrate_unbounded


def _sphere_w0(k, psi, m, n_trap):
    # the sphere's w0 = w0(m, N): integrate_unbounded with m radial points on
    # N = n_trap trapezoid directions
    region = scenes.default_region("sphere-scatter")
    return integrate_unbounded(scenes.sphere_scatter_scene(k, psi), region,
                               OuterPlan.for_region(region, trap=n_trap), m)


def synthetic_rows(c, slope, omegas=(10.0, 30.0, 100.0, 300.0, 1000.0)):
    return [ExperimentRow(o, complex(c * o**slope), 0.0 + 0.0j) for o in omegas]


def test_fit_slope_synthetic_cubic():
    fit = fit_slope(synthetic_rows(1.0, -3.0))
    assert abs(fit.slope + 3.0) < 1e-10
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_slope_synthetic_with_prefactor():
    fit = fit_slope(synthetic_rows(5.0, -9.0, omegas=(10.0, 15.0, 20.0, 30.0)))
    assert abs(fit.slope + 9.0) < 1e-9
    assert abs(fit.intercept - math.log(5.0)) < 1e-8


def test_fit_slope_rejects_unknown_error_kind():
    # use="ABS" was read as "rel": these rows then fit -9.7e-15, not -2.0
    rows = [r for r in run_example1([10.0, 100.0, 1000.0], m=4) if r.params["mode"] == "direct"]
    assert abs(fit_slope(rows, use="abs").slope + 2.0) < 1e-2
    with pytest.raises(ValueError, match="use"):
        fit_slope(rows, use="ABS")


def test_fit_slope_too_few_points():
    rows = synthetic_rows(1.0, -3.0, omegas=(10.0, 20.0))
    with pytest.raises(ValueError, match="too few"):
        fit_slope(rows)
    # every row below the floor is excluded as machine noise
    saturated = synthetic_rows(1e-20, 0.0)
    with pytest.raises(ValueError, match="too few"):
        fit_slope(saturated)


def test_run_example1_values():
    rows = run_example1([1.0, 10.0])
    polar = [r for r in rows if r.params["mode"] == "polar"]
    direct = [r for r in rows if r.params["mode"] == "direct"]
    for r in polar:
        assert r.rel_err <= 1e-13
    # the direct origin term's relative error is frequency independent
    assert abs(direct[0].rel_err - direct[1].rel_err) <= 1e-9 * direct[0].rel_err


def test_run_ellipsoid_reaches_machine_precision():
    rows = run_ellipsoid([1000.0], m=8)
    assert rows[0].abs_err <= 1e-12


def test_run_ellipsoid_slope_m2():
    rows = run_ellipsoid(np.geomspace(100.0, 1000.0, 12), m=2)
    fit = fit_slope(rows)
    assert abs(fit.slope + 5.0) <= 0.75


def test_run_ellipsoid_ordered_slopes():
    # slopes fitted over the window where each rule size still has errors
    # above the floor; larger rules converge strictly faster (the
    # asymptotic orders -13/-17 themselves sit below double precision)
    windows = {2: (10.0, 100.0), 4: (10.0, 100.0), 6: (6.0, 25.0), 8: (4.0, 16.0)}
    slopes = []
    for m, (lo, hi) in windows.items():
        rows = run_ellipsoid(np.geomspace(lo, hi, 10), m=m)
        slopes.append(fit_slope(rows).slope)
    assert slopes[0] > slopes[1] > slopes[2] > slopes[3]
    assert abs(slopes[1] + 9.0) <= 0.75


def test_run_ellipsoid_plateau():
    full = run_ellipsoid([1000.0], m=8, outer_cc=50, outer_trap=50)
    reduced = run_ellipsoid([1000.0], m=8, outer_cc=30, outer_trap=30)
    assert reduced[0].abs_err >= 10.0 * full[0].abs_err


def test_run_ellipsoid_rejects_large_m():
    with pytest.raises(ValueError):
        run_ellipsoid([10.0], m=17)


def test_run_duct_corner_accuracy():
    rows = run_duct([1000.0], n_gl=8)
    assert rows[0].params["n_gh"] == 16
    assert rows[0].rel_err <= 1e-10


def test_run_duct_direct_stagnates():
    rows = run_duct(np.geomspace(10.0, 1e4, 7), n_gl=6, mode="direct")
    rels = [r.rel_err for r in rows]
    assert min(rels) > 1e-2
    assert rels[-1] >= 0.5 * rels[0]
    fit = fit_slope(rows, use="rel")
    assert fit.slope > -0.1


def test_run_duct_modified_matches_corner():
    corner = run_duct([1000.0], n_gl=8, mode="corner")
    modified = run_duct([1000.0], n_gl=8, mode="direct_modified")
    assert modified[0].rel_err <= 100.0 * max(corner[0].rel_err, 1e-16)


def test_duct_decompositions_agree_asymptotically():
    # the corner decomposition and the repaired Cartesian decomposition are
    # different local expansions of the same integral; at high frequency
    # they must coincide
    corner = run_duct([1000.0], n_gl=8, mode="corner")[0].approx
    modified = run_duct([1000.0], n_gl=8, mode="direct_modified")[0].approx
    assert abs(corner - modified) <= 1e-8 * abs(corner)


def test_run_duct_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_duct([10.0], mode="magic")


def test_sphere_rows_have_no_reference():
    rows = run_sphere_scatter([50.0], [0.0], m=4, n_trap=64)
    assert rows[0].reference is None
    assert rows[0].abs_err is None
    assert rows[0].rel_err is None
    assert rows[0].params["self_err"] < 1e-6


def test_sphere_rejects_shadow_boundary():
    with pytest.raises(ValueError, match="shadow"):
        run_sphere_scatter([50.0], [math.pi / 2])


@pytest.mark.parametrize("kwargs, named", [
    ({"psi_grid": [0.0, 0.314, -0.1]}, "psi=-0.1"),
    ({"psi_grid": [0.0, 1.6]}, "psi=1.6"),
    ({"psi_grid": [0.0, math.nan]}, "psi=nan"),
    ({"psi_grid": [0.0, math.pi / 2]}, "shadow"),
    ({"m": 2.5}, "m=2.5"),
    ({"m": 0}, "m=0"),
    ({"m": 62}, "m=62"),
    ({"n_trap": 101}, "n_trap=101"),
    ({"n_trap": 2}, "n_trap=2"),
    ({"n_trap": 100.0}, "n_trap=100.0"),
], ids=["psi-negative", "psi-above", "psi-nan", "psi-shadow", "m-float", "m-zero",
        "m-companion-above-64", "n-trap-odd", "n-trap-2", "n-trap-float"])
def test_sphere_inputs_checked_before_any_row(kwargs, named, monkeypatch):
    # a bad input late in the grid used to raise only after the earlier
    # rows ran; now no scene is built before every input is checked
    from nsdq import scenes

    built = []
    build = scenes.sphere_scatter_scene
    monkeypatch.setattr(scenes, "sphere_scatter_scene", lambda *a: built.append(a) or build(*a))
    with pytest.raises(ValueError, match=named):
        run_sphere_scatter([50.0, 100.0], **kwargs)
    assert built == []


def test_sphere_accepts_largest_companion_and_numpy_sizes():
    # m + 3 = 64 is the largest companion rule; numpy integers pass
    row, = run_sphere_scatter([50.0], [0.0], m=np.int64(61), n_trap=np.int64(8))
    assert row.params["m"] == 61 and row.params["self_err"] >= 0.0


@pytest.mark.parametrize("psi", [0.0, 0.314, 0.628, 1.047, 1.3])
@pytest.mark.parametrize("k", [50.0, 200.0])
def test_sphere_self_err_is_honest(k, psi):
    # self_err against the true error (an m = 14, N = 400 reference) and
    # against its old definition |w0(5, 100) - w0(8, 200)|/|w0|, both from
    # integrate_unbounded.  At psi = 1.3, k = 50 both read 1.2e-2 against
    # a true 1.8e-2
    row, = run_sphere_scatter([k], [psi], m=5, n_trap=100)
    w0 = complex(row.params["w0_re"], row.params["w0_im"])
    ref = _sphere_w0(k, psi, 14, 400)
    true = abs(w0 - ref) / abs(ref)
    old = abs(w0 - _sphere_w0(k, psi, 8, 200)) / abs(w0)
    est = row.params["self_err"]
    if true > 1e-12:
        assert est >= 0.5 * true, (est, true)
    if old > 1e-13:
        assert est >= 0.99 * old, (est, old)


def test_cli_sphere_odd_outer_trap_exits_one():
    res = _run_cli("run", "--experiment", "sphere", "--omega", "50", "--psi", "0",
                   "--outer-trap", "101")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "n_trap=101" in res.stderr


def test_cli_path_failure_exits_three():
    # a sphere row on the shadow boundary's edge cannot trace its paths: one
    # line on stderr naming the row, exit code 3, no traceback and no table
    res = _run_cli("run", "--experiment", "sphere", "--omega", "50", "--psi", "1.5707")
    assert res.returncode == 3
    assert res.stdout == ""
    line, = res.stderr.splitlines()
    assert line.startswith("nsdq: descent path failed: sphere row k=50.0, psi=1.5707: ")


def test_sphere_path_error_names_the_row():
    with pytest.raises(PathError, match=r"^sphere row k=50\.0, psi=1\.5707: no first path point"):
        run_sphere_scatter([50.0], [1.5707])


@pytest.mark.parametrize("run, kwargs", [
    (run_ellipsoid, {"m": np.int64(3), "outer_cc": np.int64(10), "outer_trap": np.int32(10)}),
    (run_duct, {"n_gl": np.int64(4), "n_gh": np.int32(6), "outer_cc": np.int64(10)}),
    (run_example1, {"m": np.int64(3), "outer_cc": np.int64(10)}),
], ids=["ellipsoid", "duct", "example1"])
def test_numpy_integer_sizes_are_stored_as_ints(run, kwargs):
    # a numpy-integer size went into the row params as given, and
    # rows_to_json raised "Object of type int64 is not JSON serializable"
    rows = run([10.0], **kwargs)
    for row in rows:
        for name, value in kwargs.items():
            assert type(row.params[name]) is int and row.params[name] == value
    assert len(json.loads(rows_to_json(rows))) == len(rows)


DUCT_MODES = ("corner", "direct", "direct_modified")
BAD_SIDES = ((math.inf, 2.0), (math.nan, 2.0), (0.0, 2.0), (-1.0, 2.0), (1.0, math.inf))


@pytest.mark.parametrize("run, kwargs, named", [
    (run_ellipsoid, {"m": 4.0}, "m=4.0"),
    (run_ellipsoid, {"outer_trap": 10.5}, "outer_trap=10.5"),
    (run_duct, {"n_gl": 8.0}, "n_gl=8.0"),
    (run_duct, {"n_gl": 0}, "n_gl=0"),
    (run_duct, {"n_gl": 65}, "n_gl=65"),
    (run_duct, {"n_gl": 40}, r"defaults to 2 \* n_gl\), got n_gh=80"),
    (run_duct, {"n_gh": 65}, "n_gh=65"),
    (run_duct, {"outer_cc": 1}, "run_duct needs 2 <= outer_cc, got outer_cc=1"),
    (run_ellipsoid, {"outer_trap": 1}, "run_ellipsoid needs 2 <= outer_trap, got outer_trap=1"),
    (run_example1, {"m": 33}, "m=33"),
    (run_example1, {"outer_cc": 10.0}, "outer_cc=10.0"),
    (run_example1, {"outer_cc": 1}, "run_example1 needs 2 <= outer_cc, got outer_cc=1"),
] + [(run_duct, {"a": a, "b": b, "mode": mode}, f"^run_duct needs finite rectangle sides 0 < a, b < inf, "
                                               f"got a={a}, b={b}$")
     for mode in DUCT_MODES for a, b in BAD_SIDES],
    ids=["ellipsoid-m-float", "ellipsoid-trap-float", "duct-gl-float", "duct-gl-zero",
         "duct-gl-above-64", "duct-gh-default-above-64", "duct-gh-above-64", "duct-cc-1",
         "ellipsoid-trap-1", "example1-hermite-above-64", "example1-cc-float", "example1-cc-1"]
    + [f"duct-{mode}-a{a}-b{b}" for mode in DUCT_MODES for a, b in BAD_SIDES])
def test_sizes_checked_before_any_row(run, kwargs, named, monkeypatch):
    # duct n_gl = 40 used to compute the polar term first and then fail on
    # a Hermite rule "m=80" that nobody had asked for; an infinite duct side
    # computed the first row's polar term, and the error named the corner
    # decomposition, not run_duct
    from nsdq import scenes

    built = []
    for name in ("ellipsoid_scene", "duct_scene", "quarter_plane_scene"):
        build = getattr(scenes, name)
        monkeypatch.setattr(scenes, name, lambda *a, build=build: built.append(a) or build(*a))
    with pytest.raises(ValueError, match=named):
        run([10.0, 100.0], **kwargs)
    assert built == []


def test_cli_duct_default_gh_above_64_exits_one(monkeypatch, capsys):
    from nsdq import cli, scenes

    built = []
    build = scenes.duct_scene
    monkeypatch.setattr(scenes, "duct_scene", lambda *a: built.append(a) or build(*a))
    assert cli.main(["run", "--experiment", "duct", "--omega", "100", "--gl", "40"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and built == []
    assert "n_gh defaults to 2 * n_gl" in err and "n_gh=80" in err


def test_sphere_row_oscillator_calls(monkeypatch):
    # cost guard: every evaluation of the sphere's oscillator in one README
    # row, counted by wrapping the scene the builder returns; the tangent
    # predictor of the continuation brought it from 60 to 49
    from nsdq import scenes

    calls = []
    build = scenes.sphere_scatter_scene

    def counted_scene(*args):
        scene = build(*args)
        oscillator = scene.oscillator

        def counted(*a):
            calls.append(1)
            return oscillator(*a)

        scene.oscillator = counted
        return scene

    monkeypatch.setattr(scenes, "sphere_scatter_scene", counted_scene)
    run_sphere_scatter([100.0], [0.6283])
    assert 0 < len(calls) <= 52


def test_sphere_row_kernel_evaluations(monkeypatch):
    # cost guard: g, g' and f share one kernel evaluation per distinct
    # (z, theta), and w0 and its companion share one trace, so a row's
    # kernel misses are the Newton steps of one solve plus the path
    # derivative on its roots.  Each miss takes the sines and cosines of
    # both half-angle offsets: two _sin_cos calls.  A row measured 7
    # misses (13 with one trace per rule, 100 before the sharing)
    from nsdq import scenes

    calls = []
    sin_cos = scenes._sin_cos
    monkeypatch.setattr(scenes, "_sin_cos", lambda w: calls.append(1) or sin_cos(w))
    run_sphere_scatter([100.0], [0.6283])
    assert len(calls) % 2 == 0 and 0 < len(calls) // 2 <= 8


def test_sphere_table_layout():
    psis = [0.0, math.pi / 10, math.pi / 5, math.pi / 3]
    rows = run_sphere_scatter([50.0, 100.0, 150.0, 200.0], psis, m=3, n_trap=32)
    table = sphere_table(rows)
    lines = table.splitlines()
    assert len(lines) == 1 + 4 + 1  # header + one line per psi + note
    assert lines[0].split()[-4:] == ["50", "100", "150", "200"]
    assert "Mie" in lines[-1]


def test_csv_format():
    rows = run_example1([10.0], m=3)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "omega,approx_re,approx_im,ref_re,ref_im,abs_err,rel_err,params"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "10"
    assert "m=3" in first[-1]
    # 17 significant digits appear for non-trivial floats
    assert any(len(cell.split(".")[-1]) >= 15 for cell in lines[1].split(",")[1:3])


def test_csv_empty_reference_columns():
    rows = run_sphere_scatter([50.0], [0.0], m=3, n_trap=32)
    line = rows_to_csv(rows).splitlines()[1]
    cells = line.split(",")
    assert cells[3] == "" and cells[4] == "" and cells[5] == "" and cells[6] == ""


def test_csv_sorted_by_omega():
    rows = run_example1([100.0, 10.0], m=2)
    lines = rows_to_csv(rows).splitlines()[1:]
    omegas = [float(line.split(",")[0]) for line in lines]
    assert omegas == sorted(omegas)


def test_json_roundtrip():
    rows = run_example1([10.0], m=3)
    payload = json.loads(rows_to_json(rows))
    assert len(payload) == len(rows)
    assert payload[0]["omega"] == 10.0
    assert payload[0]["params"]["m"] == 3


def _same(cell, value):
    # a CSV cell against a JSON value: empty for null, floats to the bit
    if value is None:
        return cell == ""
    return float(cell) == value if isinstance(value, float) else cell == str(value)


def test_csv_and_json_records_agree():
    # a sphere row (no reference) and both example1 rows, field by field
    rows = run_sphere_scatter([50.0], [0.0], m=3, n_trap=32) + run_example1([10.0], m=3)
    lines = rows_to_csv(rows).splitlines()
    records = json.loads(rows_to_json(rows))
    assert len(lines) == 1 + len(records) == 1 + len(rows)
    header = lines[0].split(",")
    for line, record in zip(lines[1:], records):
        cells = dict(zip(header, line.split(",")))
        assert set(cells) == set(record)
        params = dict(item.split("=", 1) for item in cells.pop("params").split(";"))
        assert set(params) == set(record["params"])
        assert all(_same(params[k], v) for k, v in record["params"].items())
        assert all(_same(cell, record[k]) for k, cell in cells.items())
    assert [r["ref_re"] for r in records] == [-math.pi / 200, -math.pi / 200, None]


def test_tables_are_deterministic():
    a = rows_to_csv(run_duct([100.0, 300.0], n_gl=4))
    b = rows_to_csv(run_duct([100.0, 300.0], n_gl=4))
    assert a == b
    ja = rows_to_json(run_ellipsoid([50.0], m=4))
    jb = rows_to_json(run_ellipsoid([50.0], m=4))
    assert ja == jb


def _run_cli(*args):
    # the child imports the same nsdq as this process, installed or not
    src = str(Path(nsdq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "nsdq.cli", *args], capture_output=True, text=True, env=env
    )


def test_cli_example1_csv():
    res = _run_cli("run", "--experiment", "example1", "--omega", "1,10")
    assert res.returncode == 0
    assert res.stdout.startswith("omega,approx_re")
    assert len(res.stdout.splitlines()) == 5


def test_cli_log_grid_and_output_file(tmp_path):
    out = tmp_path / "table.csv"
    res = _run_cli("run", "--experiment", "ellipsoid", "--omega", "100:1000:3",
                   "--radial-points", "4", "--format", "csv", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 100.0


def test_cli_bit_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        res = _run_cli("run", "--experiment", "duct", "--omega", "50,500", "--gl", "4",
                       "--out", str(out))
        assert res.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_dump_inner_grid(tmp_path):
    out = tmp_path / "grid.csv"
    res = _run_cli("run", "--experiment", "ellipsoid", "--omega", "100",
                   "--radial-points", "4", "--outer-cc", "10", "--outer-trap", "10",
                   "--out", "-", "--dump-inner-grid", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi1,phi2,abs_qr"
    assert len(lines) == 1 + 10 * 10


def test_cli_sphere_table_on_stderr():
    res = _run_cli("run", "--experiment", "sphere", "--omega", "50,100",
                   "--psi", "0", "--outer-trap", "32", "--radial-points", "3")
    assert res.returncode == 0
    assert "psi \\ k" in res.stderr


def test_cli_usage_errors_exit_one():
    # each error is one stderr line: an argparse error prints no usage block
    for args in (["--experiment", "nope"],
                 ["--experiment", "duct", "--omega", "5:1:0"],
                 ["--experiment", "sphere", "--omega", "50", "--psi", str(math.pi / 2)],
                 ["--experiment", "duct", "--omega", "10", "--dump-inner-grid", "/tmp/x.csv"]):
        res = _run_cli("run", *args)
        assert res.returncode == 1
        assert res.stderr.count("\n") == 1 and "error: " in res.stderr, args


@pytest.mark.parametrize("experiment, omega, says", [
    ("example1", "1e308", "corner (0.0,0.0): non-finite integrand"),
    ("ellipsoid", "1e154", "scene 'ellipsoid': the outer sum is not finite at omega=1e+154"),
    ("duct", "1e153", "omega <= 1e+06, got omega=1e+153"),
    ("duct", "1e160", "omega <= 1e+06, got omega=1e+160"),
])
def test_cli_huge_omega_is_one_error_line(experiment, omega, says):
    # no numpy warning, traceback or nan row: exit 1, nothing on stdout and
    # one stderr line.  The duct is rejected before its reference builds
    # ceil(omega/100) panels, or omega**2 overflows
    res = _run_cli("run", "--experiment", experiment, "--omega", omega)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("nsdq: error: ") and res.stderr.count("\n") == 1
    assert says in res.stderr


@pytest.mark.parametrize("spec", ["1:inf:3", "1:nan:3", "1:2:1.5", "a:2:3"])
def test_cli_bad_grid_range_is_one_line(spec):
    # a non-finite end or a count that is not an integer is rejected before
    # numpy sees it: exit 1 and one stderr line that names the range
    res = _run_cli("run", "--experiment", "example1", "--omega", spec)
    assert res.returncode == 1
    assert res.stderr == f"nsdq: error: bad grid range {spec!r}\n"


@pytest.mark.parametrize("flag", ["--radial-points", "--outer-cc", "--outer-trap"])
def test_cli_zero_sizes_exit_one(flag):
    # a size given as 0 reaches run_ellipsoid, which rejects it
    res = _run_cli("run", "--experiment", "ellipsoid", "--omega", "100", flag, "0")
    assert res.returncode == 1
    assert "error" in res.stderr


@pytest.mark.parametrize("args, named", [
    (["--experiment", "duct", "--omega", "10", "--outer-trap", "5"], ["--outer-trap", "duct"]),
    (["--experiment", "ellipsoid", "--omega", "100", "--gl", "4"], ["--gl", "ellipsoid"]),
    (["--experiment", "example1", "--omega", "10", "--psi", "0.3"], ["--psi", "example1"]),
    (["--experiment", "sphere", "--omega", "50", "--psi", ","], ["psi"]),
    (["--experiment", "example1", "--omega", "10", "--dump-inner-grid", "grid.csv"],
     ["--dump-inner-grid", "example1"]),
], ids=["duct-outer-trap", "ellipsoid-gl", "example1-psi", "sphere-empty-psi", "example1-dump"])
def test_cli_rejects_options_the_experiment_does_not_read(args, named, tmp_path):
    # rejected before anything runs or prints: no table, no file
    grid = tmp_path / "grid.csv"
    res = _run_cli("run", *[str(grid) if a == "grid.csv" else a for a in args])
    assert res.returncode == 1
    assert res.stdout == ""
    assert all(word in res.stderr for word in named), res.stderr
    assert not grid.exists()


def _readme_commands():
    # the nsdq run lines of the README's "Command line" block
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("nsdq run")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[3])
def test_readme_commands_run(argv, tmp_path):
    args = argv[1:]
    if "--out" in args:
        args = args[:args.index("--out")] + args[args.index("--out") + 2:]
    out = tmp_path / "table.out"
    res = _run_cli(*args, "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().splitlines()) > 1


def test_cli_json_format():
    res = _run_cli("run", "--experiment", "example1", "--omega", "10", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload[0]["omega"] == 10.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_omega_rejected(bad):
    from nsdq import scenes
    from nsdq.oracle import acoustics_reference
    from nsdq.polar import rectangle_corner_contributions, rectangle_direct_terms
    from nsdq.specfun import ellipsoid_reference

    with pytest.raises(ValueError, match="omega"):
        scenes.disk_scene(bad)
    with pytest.raises(ValueError, match="omega"):
        run_ellipsoid([bad])
    with pytest.raises(ValueError, match="omega"):
        run_duct([100.0, bad])
    with pytest.raises(ValueError, match="omega"):
        run_sphere_scatter([bad], [0.0])
    with pytest.raises(ValueError, match="omega"):
        run_example1([bad])
    with pytest.raises(ValueError, match="omega"):
        ellipsoid_reference(bad)
    with pytest.raises(ValueError, match="omega"):
        acoustics_reference(bad)
    with pytest.raises(ValueError, match="omega"):
        rectangle_corner_contributions(lambda z, th: z, 1.0, 2.0, bad, 8, 16)
    with pytest.raises(ValueError, match="omega"):
        rectangle_direct_terms(lambda x, y: x, 1.0, 2.0, bad, 8)


@pytest.mark.parametrize("bad", [-10.0, 0.0])
def test_rectangle_entries_reject_non_positive_omega(bad):
    # the descent needs omega > 0: -10 returned a value and 0 divided by zero
    from nsdq.polar import rectangle_corner_contributions, rectangle_direct_terms

    with pytest.raises(ValueError, match="omega"):
        rectangle_corner_contributions(lambda z, th: z, 1.0, 2.0, bad, 8, 16)
    with pytest.raises(ValueError, match="omega"):
        rectangle_direct_terms(lambda x, y: x, 1.0, 2.0, bad, 8)


def test_cli_non_finite_omega_exits_one():
    res = _run_cli("run", "--experiment", "ellipsoid", "--omega", "inf")
    assert res.returncode == 1
    assert "omega" in res.stderr
