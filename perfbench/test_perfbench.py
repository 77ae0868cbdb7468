"""Tests of the benchmark itself, at sizes small enough for the unit suite."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from trace_spans import Tracer  # noqa: E402

SMALL = wl.Sizes(table_rows=4, sim_steps=6, chain_n=4, chain_rows=2, chain_steps=3)
SMALL_PROBE = wl.Sizes(table_rows=3, sim_steps=4, chain_n=4, chain_rows=2, chain_steps=2)


@pytest.fixture(scope="module")
def small_bench(tmp_path_factory):
    """The benchmark at small sizes, with its own reference file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl, "SIZES", SMALL)
        mp.setattr(wl, "PROBE_SIZES", SMALL_PROBE)
        mp.setattr(run, "REFERENCE", tmp_path_factory.mktemp("ref") / "reference.json")
        mp.setattr(run, "SETUP_REPEATS", 1)
        mp.setattr(run, "MICRO_LOOPS", 2)
        mp.setattr(run, "MICRO_REPEATS", 1)
        mp.setattr(calibrate, "LOOPS", 5)
        assert make_reference.main() == 0
        yield run


def _run(bench, capsys, workload, trace):
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return code, lines, json.loads(lines[-1]), captured.err


def test_tracer_attributes_fdyn_to_chain_simulate():
    sc = run._import_package()
    model = sc.load_model(sc.sample_model_path("arm_6r"))
    original = sc.dynamics.fdyn
    tracer = Tracer()
    tracer.install(sc)
    try:
        sc.integrators.chain_simulate(model, np.zeros(6), np.zeros(6), T=0.003, h=1e-3)
    finally:
        tracer.uninstall()
    assert sc.dynamics.fdyn is original
    spans = tracer.analyse()
    fdyn = spans.select(label="dynamics.fdyn")
    assert len(fdyn) == 3 * 4 + 1  # RK4 per step, plus the last qdd
    assert fdyn == spans.select(label="dynamics.fdyn",
                                parent_label="integrators.chain_simulate.state")
    sim = spans.select(label="integrators.chain_simulate.state")
    assert len(sim) == 1
    assert spans.self_time[sim[0]] < spans.duration[sim[0]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_emitted_metrics_are_declared(small_bench, capsys, workload):
    end_to_end, per_layer = run.declared_metrics()
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        code, lines, result, _ = _run(small_bench, capsys, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared[name]
        printed = [ln.split()[1] for ln in lines if ln.split()[0] == "metric"]
        assert set(printed) <= set(end_to_end) | set(per_layer)


def test_corrupted_output_fails_the_run(small_bench, capsys, monkeypatch):
    sc = run._import_package()
    fk = sc.kinematics.fk

    def shifted_fk(model, q):
        poses = fk(model, q)
        return poses[:-1] + [sc.Pose(poses[-1].rot, poses[-1].trans + 1e-6)]

    monkeypatch.setattr(sc.kinematics, "fk", shifted_fk)
    code, _, result, err = _run(small_bench, capsys, "table_6r", 0)
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAIL fk (round 1): poses differ" in err


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table_6r",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
