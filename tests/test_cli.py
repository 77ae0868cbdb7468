import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import screwchain
from screwchain import cli
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


def test_column_count_message_names_the_valid_totals(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0], [np.zeros((1, 11))])
    assert run_cli("fk", "--model", MODEL_6R, "--traj", str(traj),
                   "--out", str(tmp_path / "o.csv")) == 2
    assert capsys.readouterr().err == ("error: trajectory has 12 columns; expected 7, 13 "
                                       "or 19 for a 6-joint model\n")


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


def test_idyn_overflowing_row_exit_3_with_one_error_line(tmp_path, capsys):
    # the second row overflows to inf and NaN; the finite check names it
    # without numpy's RuntimeWarning lines (which pytest would raise), and
    # the first row is already written
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0, 0.1], [np.array([[0.1] * 6, [1e300] * 6]) for _ in range(3)])
    out = tmp_path / "out.csv"
    assert run_cli("idyn", "--model", MODEL_6R, "--traj", str(traj), "--rep", "all",
                   "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == "error: non-finite torque in data row 2\n"
    assert read_csv(out).shape == (1, 1 + 3 * 6 + 1)


@pytest.mark.parametrize("rep", ["body", "spatial"])
def test_fk_twists_overflowing_row_exit_3_with_one_error_line(tmp_path, capsys, rep):
    # the second row's twists overflow to inf and NaN: the first row is
    # already written, and the check names the row without numpy's
    # RuntimeWarning lines (which pytest would raise)
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0, 0.1], [np.array([[0.1] * 6, [1e308] * 6]) for _ in range(3)])
    out = tmp_path / "out.csv"
    assert run_cli("fk", "--model", MODEL_6R, "--traj", str(traj), "--twists",
                   "--rep", rep, "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: non-finite twist in data row 2\n"
    written = read_csv(out)
    assert written.shape == (1, 1 + 6 * 6) and np.all(np.isfinite(written))


def two_prismatic_model(tmp_path):
    """A 3-body model file: two prismatic x-joints, then a revolute joint.
    At q = HUGE_Q the sum of the two joint positions overflows."""
    def body(parent, kind, point):
        return {"parent": parent, "mass": 1.0, "com": [0.1, 0.0, 0.0],
                "inertia_com": np.diag([0.01] * 3).tolist(),
                "joint": {"type": kind, "axis": [1.0, 0.0, 0.0] if kind == "prismatic"
                          else [0.0, 0.0, 1.0], "point": point}}
    path = tmp_path / "two_prismatic.json"
    path.write_text(json.dumps({"bodies": [body(0, "prismatic", [0.0, 0.0, 0.0]),
                                           body(1, "prismatic", [0.0, 0.0, 0.0]),
                                           body(2, "revolute", [0.5, 0.0, 0.0])]}))
    return str(path)


HUGE_Q = [1.7e308, 1.7e308, 0.5]


@pytest.mark.parametrize("argv, quantity", [
    (["fk"], "pose"),
    (["jacobian", "--rep", "body"], "Jacobian"),
    (["jacobian", "--rep", "spatial"], "Jacobian"),
    (["jacobian", "--rep", "hybrid"], "Jacobian"),
], ids=["fk", "jacobian-body", "jacobian-spatial", "jacobian-hybrid"])
def test_overflowing_table_row_exit_3_names_quantity_and_row(tmp_path, capsys, argv,
                                                             quantity):
    # the second row overflows: one error line naming the row, no numpy
    # RuntimeWarning (which pytest would raise), the first row written
    traj = tmp_path / "traj.csv"
    write_traj(traj, [0.0, 0.1], [np.array([[0.1, 0.2, 0.3], HUGE_Q])])
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--model", two_prismatic_model(tmp_path), "--traj", str(traj),
                   "--out", str(out)) == 3
    assert capsys.readouterr().err == f"error: non-finite {quantity} in data row 2\n"
    written = read_csv(out)
    assert written.shape[0] == 1 and written[0, 0] == 0.0 and np.all(np.isfinite(written))


@pytest.mark.parametrize("variant", ["standard", "binet"])
def test_christoffel_overflowing_q_exit_3_with_one_error_line(tmp_path, capsys, variant):
    out = tmp_path / "gamma.csv"
    q = ",".join(repr(v) for v in HUGE_Q)
    assert run_cli("christoffel", "--model", two_prismatic_model(tmp_path), f"--q={q}",
                   "--variant", variant, "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: non-finite Christoffel symbol at --q\n"
    assert not out.exists()


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


@pytest.mark.parametrize("flag, what, rows, message", [
    ("--traj", "trajectory", "0,1,0x10\n", "data row 1, column 3: '0x10' is not a number"),
    ("--traj", "trajectory", "0,1,2\n\n1,2\n",
     "data row 2, column 3: the row has 2 columns, data row 1 has 3"),
    ("--torques", "torque file", "0,1\n1,2,3\n",
     "data row 2, column 3: the row has 3 columns, data row 1 has 2"),
    ("--torques", "torque file", "# knots\n0,1\n1, \n",
     "data row 2, column 2: '' is not a number"),
])
def test_malformed_table_names_one_based_row_and_column(tmp_path, capsys, flag, what,
                                                        rows, message):
    table = tmp_path / "table.csv"
    table.write_text("header\n" + rows)
    command = ["fk"] if flag == "--traj" else ["simulate", "--T", "0.01"]
    assert run_cli(*command, "--model", MODEL_1R, flag, str(table),
                   "--out", str(tmp_path / "o.csv")) == 2
    assert capsys.readouterr().err == f"error: {what} {message}\n"


@pytest.mark.parametrize("cell", ["1_000", "\u0663"])
def test_vector_flags_take_the_numbers_of_a_table_cell(tmp_path, capsys, cell):
    # Python's float reads '1_000' and the Arabic-Indic digit three; a
    # table cell does not, and neither does a vector flag
    out = str(tmp_path / "o.csv")
    for command in (["simulate", "--T", "0.001", f"--q0={cell}"],
                    ["simulate", "--T", "0.001", f"--qd0={cell}"],
                    ["christoffel", f"--q={cell}"]):
        assert run_cli(*command, "--model", MODEL_1R, "--out", out) == 2
        flag = command[-1].split("=")[0]
        assert capsys.readouterr().err == f"error: {flag}: {cell!r} is not a number\n"
    table = tmp_path / "traj.csv"
    table.write_text(f"t,q1\n0,{cell}\n")
    assert run_cli("fk", "--model", MODEL_1R, "--traj", str(table), "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: trajectory data row 1, column 2: {cell!r} is not a number\n")
    assert not os.path.exists(out)


def _vector_cell_by_cell(text, n, name):
    """A vector flag read one cell at a time as a table cell: its n finite
    numbers, or the message that refuses it."""
    cells = text.split(",")
    values = [cli._cell_number(cell) for cell in cells]
    if None in values:
        return f"{name}: {cells[values.index(None)].strip()!r} is not a number"
    vec = np.array(values)
    if not np.isfinite(vec).all():
        return f"{name}: values must be finite"
    return vec if vec.size == n else f"{name}: expected {n} values, got {vec.size}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f" {x:.6e} "),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["", " ", "1_000", "\u0663", "0x10", "1e400", "+.5", "1 2", "nan",
                     "-inf", "1;2", "'1'", "1\r2", "1\n2", "1#2"])), min_size=1, max_size=8),
       st.integers(0, 2))
def test_vector_flag_read_in_one_call_as_cell_by_cell(cells, extra):
    # the one np.loadtxt call over a flag gives the numbers, bit for bit,
    # or the message of the cell-by-cell reading it replaced
    text, n = ",".join(cells), len(cells) + extra - 1
    want = _vector_cell_by_cell(text, n, "--q")
    try:
        got = cli._parse_vector(text, n, "--q")
    except cli.CliError as err:
        assert str(err) == want
    else:
        assert not isinstance(want, str) and got.tobytes() == want.tobytes()


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
                                 ["--T", "1", "--h", "1e-300"],
                                 ["--T", "1", "--h", "1e-320"],
                                 ["--T", "1e308", "--h", "1e-308"]])
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


@pytest.mark.parametrize("form", ["state", "momentum"])
def test_fdyn_command_is_simulate(tmp_path, form):
    # the fdyn alias writes the trajectory and report files of simulate,
    # byte for byte, with its exit code, and refuses --h 0 as it does
    tt = np.linspace(0.0, 0.01, 5)
    torque_file = tmp_path / "tau.csv"
    write_traj(torque_file, tt, [np.column_stack([np.sin(40 * tt + j) for j in range(6)])])
    files = {}
    for command in ("simulate", "fdyn"):
        out = tmp_path / f"{command}.csv"
        code = run_cli(command, "--model", MODEL_6R, "--form", form, "--torques",
                       str(torque_file), "--T", "0.01", "--out", str(out))
        files[command] = (code, out.read_bytes(),
                          (tmp_path / f"{command}.csv.report.csv").read_bytes())
        assert run_cli(command, "--model", MODEL_6R, "--form", form, "--h", "0",
                       "--out", str(tmp_path / "bad.csv")) == 2
    assert files["fdyn"] == files["simulate"]
    assert files["simulate"][0] == 0


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


def test_benchmark_builds_one_chain_per_size(tmp_path, monkeypatch):
    # sizes repeat and come unsorted: the rows keep the order of --reps and
    # --n, and each size's chain is built once for all representations
    built, build = [], cli._benchmark_chain

    def chain(n):
        built.append(n)
        return build(n)

    monkeypatch.setattr(cli, "_benchmark_chain", chain)
    out = tmp_path / "bench.csv"
    assert run_cli("benchmark", "--reps", "hybrid,body", "--n", "4,2,4", "--trials", "1",
                   "--out", str(out)) == 0
    with open(out) as fh:
        keys = [tuple(line.split(",")[:2]) for line in fh.read().splitlines()[1:]]
    assert keys == [("hybrid", "4"), ("hybrid", "2"), ("hybrid", "4"),
                    ("body", "4"), ("body", "2"), ("body", "4")]
    assert sorted(built) == [2, 4]


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


# ------------------------------------------------------- fuzzed CSV boundary

FUZZ_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# numbers of every size, text near the number syntax, and any characters
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-3.0, 3.0).map(repr),
    st.text(alphabet="0123456789.eE+-#xn ai_;\t\r", max_size=6),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
)


@st.composite
def mutated_tables(draw, width):
    """A valid table of ``width`` columns (increasing times, moderate
    values) with up to three cells replaced, dropped or inserted, or whole
    lines inserted."""
    rows = [[repr(0.001 * r)] + [repr(v) for v in draw(
        st.lists(st.floats(-3.0, 3.0), min_size=width - 1, max_size=width - 1))]
        for r in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(("cell", "drop", "insert", "line")))
        c = draw(st.integers(0, max(len(row) - 1, 0)))
        if kind == "cell" and row:
            row[c] = draw(CELLS)
        elif kind == "drop" and row:
            del row[c]
        elif kind == "insert":
            row.insert(c, draw(CELLS))
        else:
            rows.insert(draw(st.integers(0, len(rows))), [draw(CELLS)])
    return "header\n" + "".join(",".join(row) + "\n" for row in rows)


def vectors(n):
    """n comma-separated cells, most of them numbers, some not; or a
    wrong count of them."""
    return st.lists(st.one_of(st.floats(-3.0, 3.0).map(repr), CELLS),
                    min_size=n - 1, max_size=n + 1).map(",".join)


def assert_clean_outcome(argv, outputs=()):
    """main(argv) exits 0 with every output table finite, or exits 2
    (validation) or 3 (numerical failure, which a finite but huge input
    may cause) with exactly one ``error:`` line; a warning or a traceback
    fails the test."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    if code == 0:
        for path in outputs:
            assert np.isfinite(read_csv(path)).all(), path
    else:
        text = err.getvalue()
        assert code in (2, 3) and text.startswith("error: ") and text.count("\n") == 1, text


@FUZZ_SETTINGS
@given(st.sampled_from([("fk", 1), ("fk", 2), ("jacobian", 1), ("idyn", 3)]), st.data())
def test_fuzzed_trajectory_exits_cleanly(command, data):
    name, blocks = command
    extra = ["--twists"] if name == "fk" and blocks == 2 else []
    with tempfile.TemporaryDirectory() as tmp:
        traj, out = os.path.join(tmp, "traj.csv"), os.path.join(tmp, "out.csv")
        with open(traj, "w", encoding="utf-8") as fh:
            fh.write(data.draw(mutated_tables(1 + 2 * blocks)))
        assert_clean_outcome([name, "--model", MODEL_2R, "--traj", traj, "--out", out,
                              *extra], [out])


@FUZZ_SETTINGS
@given(mutated_tables(3))
def test_fuzzed_torque_file_exits_cleanly(table):
    with tempfile.TemporaryDirectory() as tmp:
        tau, out = os.path.join(tmp, "tau.csv"), os.path.join(tmp, "sim.csv")
        with open(tau, "w", encoding="utf-8") as fh:
            fh.write(table)
        assert_clean_outcome(["simulate", "--model", MODEL_2R, "--torques", tau,
                              "--T", "0.004", "--out", out], [out, out + ".report.csv"])


@FUZZ_SETTINGS
@given(vectors(2), vectors(2), vectors(2))
def test_fuzzed_joint_vectors_exit_cleanly(q0, qd0, q):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        assert_clean_outcome(["simulate", "--model", MODEL_2R, f"--q0={q0}",
                              f"--qd0={qd0}", "--T", "0.004", "--out", out],
                             [out, out + ".report.csv"])
        assert_clean_outcome(["christoffel", "--model", MODEL_2R, f"--q={q}",
                              "--out", out], [out])


# ------------------------------------------------- parser and CSV writing

def _cli_outcome(argv, capsys, files):
    """(exit code, stdout, stderr, bytes of each file) of one ``main`` call;
    an argparse error counts as its SystemExit code."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return (code, captured.out, captured.err,
            [open(f, "rb").read() if os.path.exists(f) else None for f in files])


def test_cached_parser_behaves_as_fresh_parsers(tmp_path, capsys, rng):
    # one parser serves consecutive calls of different subcommands, an
    # argparse error (exit 2) among them, as a parser built for each does
    traj = tmp_path / "traj.csv"
    write_traj(traj, np.arange(3) * 0.1, [rng.normal(size=(3, 2)) for _ in range(3)])
    m, tr = ["--model", MODEL_2R], ["--traj", str(traj)]
    calls = [["check", *m], ["idyn", *m, *tr, "--rep", "all"], ["fk", *m],
             ["fk", *m, *tr, "--twists"], ["idyn", *m, *tr, "--rep", "nope"],
             ["christoffel", *m, "--q=0.3,-0.2", "--variant", "binet"],
             ["simulate", *m, "--T", "0.003", "--no-gravity"], ["check"]]

    def outcomes(fresh):
        got = []
        for k, argv in enumerate(calls):
            out = str(tmp_path / f"{fresh}_{k}.csv")
            if fresh:
                cli._build_parser.cache_clear()
            got.append(_cli_outcome(argv + ["--out", out] * (k not in (0, 7)), capsys,
                                    [out, out + ".report.csv"]))
        return got

    assert cli._build_parser() is cli._build_parser()
    cached = outcomes(fresh=False)
    assert [c[0] for c in cached] == [0, 0, 2, 0, 2, 0, 0, 2]
    assert cached == outcomes(fresh=True)


def _per_value_text(header, rows):
    """A table as it was written before one format per row: every value
    through ``%.17g`` on its own, a string as it is."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else "%.17g" % v for v in row)
              for row in rows]
    return "".join(line + "\n" for line in lines)


def test_csv_text_equals_per_value_format(tmp_path, monkeypatch, rng):
    # every command's table, written with one row format, against the same
    # rows formatted value by value
    tables = []

    def spy(path, header, rows, fmt=None):
        rows = [list(r) for r in rows]
        tables.append((path, header, rows))
        write(path, header, rows, fmt)

    write = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", spy)
    traj = tmp_path / "traj.csv"
    write_traj(traj, np.arange(4) * 0.1, [rng.normal(size=(4, 6)) for _ in range(3)])
    out = str(tmp_path / "out.csv")
    common = ["--model", MODEL_6R, "--traj", str(traj), "--out", out]
    for argv in (["fk", *common], ["fk", *common, "--twists", "--rep", "hybrid"],
                 ["jacobian", *common, "--rep", "spatial"], ["idyn", *common, "--rep", "all"],
                 ["simulate", "--model", MODEL_6R, "--T", "0.005", "--out", out],
                 ["christoffel", "--model", MODEL_6R, "--q=0.1,0.2,0.3,0.4,0.5,0.6",
                  "--out", out],
                 ["benchmark", "--n", "2,3", "--trials", "1", "--out", out]):
        tables.clear()
        assert main(argv) == 0
        assert tables, argv
        for path, header, rows in tables:
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == _per_value_text(header, rows), argv


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
