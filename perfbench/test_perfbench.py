"""Self-test of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_same_counts_and_ok_frac():
    args = ["--workload", "ellipsoid", "--seed", "7", "--seconds", "1"]
    first, second = (_result(_bench(*args, "--trace", "1")) for _ in range(2))
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert counts["polar.calls"] == 12 and counts["scenes.points"] > 0
    assert first["correct"] and second["correct"]
    ok = [_result(_bench(*args, "--trace", "0"))["metrics"]["ok_frac"]["value"] for _ in range(2)]
    assert ok == [1.0, 1.0]


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_name_and_unit(trace, kind):
    proc = _bench("--workload", "planar", "--seed", "3", "--seconds", "1", "--trace", trace)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= run.MIN_OPS and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name


def _ok_frac(workload, seed=5):
    inputs = workloads.make_inputs(workload, seed)
    ops = workloads.build_ops(workload, inputs, workloads.compute_references(workload, inputs))
    records = run.run_sweep(ops)
    return sum(r[3] for r in records) / len(records)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_injected_wrong_value_lowers_ok_frac(workload, monkeypatch):
    from nsdq import experiments, polar

    assert _ok_frac(workload) == 1.0
    original = polar._central_grid

    def wrong(scene, angles, m):
        # relative error 1e-9 * m: wrong values, and a wrong self-check
        # for the sphere, whose two rule sizes then disagree
        return original(scene, angles, m) * (1.0 + 1e-9 * m)

    monkeypatch.setattr(polar, "_central_grid", wrong)
    monkeypatch.setattr(experiments, "_central_grid", wrong)
    assert _ok_frac(workload) < 1.0


def test_tracer_restores_names_and_keeps_values():
    from nsdq import experiments, oracle, polar, scenes, univariate

    modules = (experiments, oracle, polar, scenes, univariate)
    before = [dict(vars(m)) for m in modules]
    inputs = workloads.make_inputs("planar", 2)
    ops = workloads.build_ops("planar", inputs)
    plain = [repr(op.call()) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [repr(op.call()) for op in ops]
        layers = tracer.take()
    finally:
        tracer.restore()
    assert traced == plain
    assert [dict(vars(m)) for m in modules] == before
    assert layers["counts"]["univariate.calls"] > 0
    assert layers["counts"]["paths.newton_calls"] > 0


def test_cli_cross_check_catches_a_mismatch():
    inputs = workloads.make_inputs("duct", 4)
    ops = workloads.build_ops("duct", inputs)[:3]
    inputs = {"omega": inputs["omega"][:3]}
    results = [op.call() for op in ops]
    assert run.cli_cross_check("duct", inputs, results) == []
    results[1] = results[0]
    assert run.cli_cross_check("duct", inputs, results)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "duct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
