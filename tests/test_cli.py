import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import screwchain
from screwchain.cli import main
from screwchain.samples import sample_model_path

from conftest import planar_2r_lagrangian_torque

MODEL_2R = str(sample_model_path("planar_2r"))
MODEL_1R = str(sample_model_path("pendulum_1r"))
MODEL_6R = str(sample_model_path("arm_6r"))


def run_cli(*argv):
    return main(list(argv))


def write_traj(path, t, blocks):
    n = blocks[0].shape[1]
    names = ["t"]
    for prefix in ("q", "qd", "qdd")[:len(blocks)]:
        names += [f"{prefix}{j + 1}" for j in range(n)]
    rows = np.column_stack([np.asarray(t).reshape(-1, 1)] + list(blocks))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------- cmd check

def test_check_valid_model_exit_0(capsys):
    assert run_cli("check", "--model", MODEL_6R) == 0
    out = capsys.readouterr().out
    assert "6 bodies" in out and "6 DOF" in out


def test_check_missing_file_exit_1(capsys):
    assert run_cli("check", "--model", "/nonexistent/model.json") == 1


def test_check_invalid_model_exit_2_names_body(tmp_path, capsys):
    doc = json.loads(open(MODEL_2R).read())
    doc["bodies"][1]["mass"] = -3.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("check", "--model", str(bad)) == 2
    err = capsys.readouterr().err
    assert "bodies[1]" in err and "mass" in err


def test_overflowing_model_exit_2_with_one_stderr_line(tmp_path):
    # finite numbers whose inertia table overflows: the ModelError is all
    # the user sees, with no numpy warning before it
    doc = json.loads(open(MODEL_2R).read())
    doc["bodies"][1]["com"] = [1e200, 0, 0]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(screwchain.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "screwchain.cli", "check", "--model", str(bad)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: invalid model: bodies[1]: inertia table overflows"]


@pytest.mark.parametrize("cmd", ["check", "fk"])
def test_non_finite_model_number_exit_2_names_field(tmp_path, capsys, cmd):
    doc = json.loads(open(MODEL_2R).read())
    doc["bodies"][1]["joint"]["axis"][0] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0], [np.zeros((1, 2))])
    out = tmp_path / "o.csv"
    extra = [] if cmd == "check" else ["--traj", str(traj), "--out", str(out)]
    assert run_cli(cmd, "--model", str(bad), *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bodies[1].joint.axis: must be finite" in err
    assert not out.exists()


# -------------------------------------------------------------------- cmd fk

def test_fk_reference_configuration(tmp_path):
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0, 1.0], [np.zeros((2, 2))])
    out = tmp_path / "out.csv"
    assert run_cli("fk", "--model", MODEL_2R, "--traj", str(traj),
                   "--out", str(out)) == 0
    data = read_csv(out)
    # identity rotations, zero translations (frames coincide with the IFR)
    expect = np.tile([1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0], 2)
    assert np.array_equal(data[0, 1:], expect)


def test_fk_column_count_mismatch_exit_2(tmp_path):
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0], [np.zeros((1, 3))])
    assert run_cli("fk", "--model", MODEL_2R, "--traj", str(traj),
                   "--out", str(tmp_path / "o.csv")) == 2


def test_fk_twists_needs_qd(tmp_path):
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0], [np.zeros((1, 2))])
    assert run_cli("fk", "--model", MODEL_2R, "--traj", str(traj), "--twists",
                   "--out", str(tmp_path / "o.csv")) == 2


def test_jacobian_times_qd_equals_twists(tmp_path, rng):
    t = np.array([0.0, 0.3, 0.8])
    q = rng.normal(size=(3, 2))
    qd = rng.normal(size=(3, 2))
    traj = tmp_path / "traj.csv"
    write_traj(traj, t, [q, qd])
    jac_out = tmp_path / "jac.csv"
    tw_out = tmp_path / "tw.csv"
    for rep in ("body", "spatial", "hybrid", "mixed"):
        assert run_cli("jacobian", "--model", MODEL_2R, "--traj", str(traj),
                       "--rep", rep, "--out", str(jac_out)) == 0
        assert run_cli("fk", "--model", MODEL_2R, "--traj", str(traj),
                       "--twists", "--rep", rep, "--out", str(tw_out)) == 0
        jac = read_csv(jac_out)
        tws = read_csv(tw_out)
        for k in range(len(t)):
            j = jac[k, 1:].reshape(12, 2)
            assert np.allclose(j @ qd[k], tws[k, 1:], atol=1e-12)


# ------------------------------------------------------------------ cmd idyn

def test_idyn_static_gravity_matches_oracle(tmp_path):
    t = np.array([0.0, 1.0])
    q = np.array([[0.3, -0.5], [1.1, 0.4]])
    zeros = np.zeros_like(q)
    traj = tmp_path / "traj.csv"
    write_traj(traj, t, [q, zeros, zeros])
    out = tmp_path / "out.csv"
    assert run_cli("idyn", "--model", MODEL_2R, "--traj", str(traj),
                   "--out", str(out)) == 0
    data = read_csv(out)
    for k in range(2):
        expect = planar_2r_lagrangian_torque(q[k], zeros[k], zeros[k])
        assert np.allclose(data[k, 1:], expect, atol=1e-9)


def test_idyn_zero_gravity_static_is_zero(tmp_path):
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0], [np.array([[0.7, -0.2]]), np.zeros((1, 2)),
                             np.zeros((1, 2))])
    out = tmp_path / "out.csv"
    assert run_cli("idyn", "--model", MODEL_2R, "--traj", str(traj),
                   "--no-gravity", "--out", str(out)) == 0
    assert np.allclose(read_csv(out)[0, 1:], 0.0, atol=0.0)


def test_idyn_rep_all_deviation_column(tmp_path, rng):
    t = np.arange(4) * 0.1
    blocks = [rng.normal(size=(4, 6)) for _ in range(3)]
    traj = tmp_path / "traj.csv"
    write_traj(traj, t, blocks)
    out = tmp_path / "out.csv"
    assert run_cli("idyn", "--model", MODEL_6R, "--traj", str(traj),
                   "--rep", "all", "--out", str(out)) == 0
    data = read_csv(out)
    assert data.shape[1] == 1 + 3 * 6 + 1
    assert np.all(data[:, -1] < 1e-9)


def test_idyn_rep_mixed_matches_body(tmp_path, rng):
    traj = tmp_path / "traj.csv"
    write_traj(traj, np.arange(3) * 0.1, [rng.normal(size=(3, 6)) for _ in range(3)])
    outs = {}
    for rep in ("mixed", "body"):
        outs[rep] = tmp_path / f"{rep}.csv"
        assert run_cli("idyn", "--model", MODEL_6R, "--traj", str(traj),
                       "--rep", rep, "--out", str(outs[rep])) == 0
    with open(outs["mixed"]) as fh:
        assert fh.readline().strip() == ",".join(["t"] + [f"Q{j + 1}" for j in range(6)])
    mixed, body = read_csv(outs["mixed"]), read_csv(outs["body"])
    assert mixed.shape == body.shape == (3, 7)
    assert np.allclose(mixed, body, rtol=0.0, atol=1e-9)


def test_idyn_requires_qdd(tmp_path, rng):
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0], [rng.normal(size=(1, 2)), rng.normal(size=(1, 2))])
    assert run_cli("idyn", "--model", MODEL_2R, "--traj", str(traj),
                   "--out", str(tmp_path / "o.csv")) == 2


def test_deterministic_byte_identical_output(tmp_path, rng):
    t = np.arange(5) * 0.25
    blocks = [rng.normal(size=(5, 6)) for _ in range(3)]
    traj = tmp_path / "traj.csv"
    write_traj(traj, t, blocks)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("idyn", "--model", MODEL_6R, "--traj", str(traj),
                       "--rep", "all", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command, blocks", [("fk", 1), ("jacobian", 1),
                                             ("idyn", 3)])
def test_non_finite_trajectory_exit_2_names_row_and_column(tmp_path, capsys,
                                                           command, blocks):
    data = [np.zeros((3, 2)) for _ in range(blocks)]
    data[0][1, 1] = np.nan
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0, 0.1, 0.2], data)
    out = tmp_path / "o.csv"
    assert run_cli(command, "--model", MODEL_2R, "--traj", str(traj),
                   "--out", str(out)) == 2
    assert "row 2, column 3" in capsys.readouterr().err
    assert not out.exists()


def test_header_only_trajectory_exit_2_without_warning(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    traj.write_text("t,q1,q2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fk", "--model", MODEL_2R, "--traj", str(traj),
                       "--out", str(tmp_path / "o.csv")) == 2
    assert "trajectory has no data rows" in capsys.readouterr().err


# -------------------------------------------------------------- cmd simulate

@pytest.mark.parametrize("bad", [["--h", "0"], ["--h=-1e-3"], ["--h", "nan"],
                                 ["--T=-0.5"], ["--T", "inf"], ["--q0", "nan"],
                                 ["--T", "1e15", "--h", "1e-3"],
                                 ["--T", "1", "--h", "1e-300"]])
def test_simulate_bad_arguments_exit_2(tmp_path, capsys, bad):
    assert run_cli("simulate", "--model", MODEL_1R, *bad,
                   "--out", str(tmp_path / "sim.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--T" in bad and "--h" in bad:  # a step count too large to store
        assert f"h={float(bad[-1])!r} takes" in err and "steps, too many" in err

def test_simulate_equilibrium_stationary(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--model", MODEL_1R, "--q0", "-1.5707963267948966",
                   "--T", "0.2", "--h", "1e-3", "--out", str(out)) == 0
    data = read_csv(out)
    assert np.abs(data[:, 1] + np.pi / 2).max() < 1e-12
    report = read_csv(str(out) + ".report.csv")
    assert np.all(np.isfinite(report))


def test_simulate_energy_report_bounded(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--model", MODEL_2R, "--q0", "0.4,-0.2",
                   "--qd0", "0.5,0.1", "--T", "0.5", "--h", "1e-3",
                   "--no-gravity", "--out", str(out)) == 0
    rep = read_csv(str(out) + ".report.csv")
    energy = rep[:, 1]
    assert np.abs(energy - energy[0]).max() <= 1e-8


def test_simulate_forms_agree_in_free_fall(tmp_path):
    outs = {}
    for form in ("state", "momentum"):
        out = tmp_path / f"{form}.csv"
        assert run_cli("simulate", "--model", MODEL_1R, "--q0", "0.6",
                       "--T", "0.4", "--h", "1e-3", "--form", form,
                       "--out", str(out)) == 0
        outs[form] = read_csv(out)
    assert np.abs(outs["state"][:, 1] - outs["momentum"][:, 1]).max() < 1e-6


def test_simulate_round_trips_through_idyn(tmp_path):
    # torques recovered by idyn from the simulated trajectory match the
    # torque schedule that drove the simulation
    n = 2
    tt = np.linspace(0.0, 0.4, 81)
    tau = np.column_stack([0.3 * np.sin(2 * np.pi * tt), 0.1 * np.cos(3 * tt)])
    torque_file = tmp_path / "tau.csv"
    write_traj(torque_file, tt, [tau])

    sim_out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--model", MODEL_2R, "--q0", "0.3,0.2",
                   "--torques", str(torque_file), "--T", "0.4", "--h", "5e-3",
                   "--out", str(sim_out)) == 0
    idyn_out = tmp_path / "torques.csv"
    assert run_cli("idyn", "--model", MODEL_2R, "--traj", str(sim_out),
                   "--out", str(idyn_out)) == 0
    data = read_csv(idyn_out)
    expect = np.column_stack([np.interp(data[:, 0], tt, tau[:, j])
                              for j in range(n)])
    assert np.abs(data[:, 1:] - expect).max() < 1e-6


def test_simulate_rejects_torque_times_not_increasing(tmp_path, capsys):
    torque_file = tmp_path / "tau.csv"
    write_traj(torque_file, [0.0, 0.05, 0.02], [np.zeros((3, 1))])
    assert run_cli("simulate", "--model", MODEL_1R, "--torques", str(torque_file),
                   "--T", "0.01", "--out", str(tmp_path / "sim.csv")) == 2
    assert "torque file times must be strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [1, 4])
def test_torque_schedule_equals_interp_per_column(tmp_path, rows):
    from screwchain.cli import _torque_fn_from_file

    rng = np.random.default_rng(rows)
    tt = np.cumsum(rng.uniform(0.01, 0.1, size=rows))
    tau = rng.normal(size=(rows, 3))
    torque_file = tmp_path / "tau.csv"
    write_traj(torque_file, tt, [tau])
    torque = _torque_fn_from_file(str(torque_file), 3)
    # before the first knot, at every knot, between knots, after the last
    probes = np.concatenate([[tt[0] - 1.0], tt, 0.5 * (tt[1:] + tt[:-1]),
                             [tt[-1] + 1e-9, tt[-1] + 1.0]])
    for t in probes:
        got = torque(t, None, None)
        expect = np.array([np.interp(t, tt, tau[:, j]) for j in range(3)])
        assert np.array_equal(got, expect), t


def test_simulate_blow_up_exit_3_with_partial_output(tmp_path):
    tt = np.array([0.0, 1.0])
    tau = np.array([[1e308], [1e308]])
    torque_file = tmp_path / "tau.csv"
    write_traj(torque_file, tt, [tau])
    out = tmp_path / "sim.csv"
    with np.errstate(all="ignore"):
        code = run_cli("simulate", "--model", MODEL_1R, "--torques",
                       str(torque_file), "--T", "0.5", "--h", "1e-3",
                       "--out", str(out))
    assert code == 3
    data = read_csv(out)  # partial output exists with finite states
    assert np.all(np.isfinite(data[:, :3]))  # t, q, qd columns
    assert len(read_csv(str(out) + ".report.csv")) == len(data)


@pytest.mark.parametrize("form", ["state", "momentum"])
def test_simulate_abort_names_step_and_reason(tmp_path, capsys, form):
    out = tmp_path / "sim.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the reason replaces numpy's warnings
        code = run_cli("simulate", "--model", MODEL_2R, "--qd0", "1e200,1e200",
                       "--form", form, "--out", str(out))
    assert code == 3
    data = read_csv(out)  # the initial sample is written, its qdd unknown
    assert data.shape == (1, 7) and data[0, 0] == 0.0
    assert np.array_equal(data[0, 3:5], [1e200, 1e200])
    assert np.all(np.isnan(data[0, 5:]))
    report = read_csv(str(out) + ".report.csv")  # one row per sample, NaN where unknown
    assert report.shape == (1, 4) and report[0, 0] == 0.0
    assert np.all(np.isnan(report[0, 1:3]))
    errors = [ln for ln in capsys.readouterr().err.splitlines()
              if ln.startswith("error:")]
    assert len(errors) == 1
    assert "aborted in step 0 from t=0" in errors[0]
    assert "overflow" in errors[0]


# ------------------------------------------------------------ cmd christoffel

def test_christoffel_single_joint_all_zero(tmp_path, capsys):
    out = tmp_path / "gamma.csv"
    assert run_cli("christoffel", "--model", MODEL_1R, "--out", str(out)) == 0
    data = read_csv(out)
    assert np.allclose(data[:, 3], 0.0, atol=0.0)
    assert "variant_deviation 0\n" in capsys.readouterr().err


def test_christoffel_variants_agree(tmp_path, capsys):
    outs = {}
    for variant in ("standard", "binet"):
        out = tmp_path / f"{variant}.csv"
        assert run_cli("christoffel", "--model", MODEL_6R, "--q",
                       "0.3,-0.4,0.25,0.7,-0.2,0.5", "--variant", variant,
                       "--out", str(out)) == 0
        outs[variant] = read_csv(out)
    deviation = np.abs(outs["standard"][:, 3] - outs["binet"][:, 3]).max()
    assert deviation < 1e-10
    # both runs print the deviation between the variants they computed
    lines = [ln.split() for ln in capsys.readouterr().err.splitlines()]
    assert [name for name, _ in lines] == ["variant_deviation"] * 2
    assert [float(value) for _, value in lines] == [deviation] * 2


# --------------------------------------------------------------- cmd benchmark

def test_benchmark_counts_exact(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli("benchmark", "--n", "2,4,10", "--trials", "3",
                   "--out", str(out)) == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    idx = header.index("exact_match")
    assert all(row[idx] == "1" for row in rows)
    # reference values for n=10 from the complexity analysis
    by_key = {(r[0], r[1]): r for r in rows}
    body10 = by_key[("body", "10")]
    assert body10[header.index("pred_screw")] == "27"
    assert body10[header.index("pred_brackets")] == "19"
    spatial10 = by_key[("spatial", "10")]
    assert spatial10[header.index("pred_screw")] == "10"
    assert spatial10[header.index("pred_tensor")] == "10"
    hybrid10 = by_key[("hybrid", "10")]
    assert hybrid10[header.index("pred_trans")] == "27"
    assert hybrid10[header.index("pred_rot")] == "10"
    assert hybrid10[header.index("pred_tensor")] == "10"
    assert hybrid10[header.index("pred_brackets")] == "29"


@pytest.mark.parametrize("bad", [["--n", "0"], ["--n", "2,-1"], ["--n", "two"],
                                 ["--trials", "0"]])
def test_benchmark_bad_sizes_exit_2(tmp_path, bad):
    assert run_cli("benchmark", *bad, "--out", str(tmp_path / "bench.csv")) == 2


@pytest.mark.parametrize("reps", ["foo", "mixed"])
def test_benchmark_bad_reps_exit_2(tmp_path, capsys, reps):
    assert run_cli("benchmark", "--reps", reps, "--n", "2",
                   "--out", str(tmp_path / "bench.csv")) == 2
    err = capsys.readouterr().err
    assert "--reps" in err and all(rep in err for rep in ("body", "spatial", "hybrid"))


# --------------------------------------------------------------- entry point

def test_console_entry_point_runs():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(screwchain.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "screwchain.cli", "check", "--model", MODEL_1R],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "1 bodies" in proc.stdout or "1 DOF" in proc.stdout
