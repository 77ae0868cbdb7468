"""The three benchmark workloads: seeded inputs, one timed round of user
operations, and the checks on what those operations wrote.

A round runs every operation of a workload once.  Operations go through
``screwchain.cli.main`` exactly as a user's command line would, except
``jerks``, which has no command and is called through the library.  The
program only ever sees the generated CSV and JSON files.

* ``table_6r``: the bundled ``arm_6r`` model and a seeded table of q, qd,
  qdd through ``fk``, ``fk --twists``, ``jacobian`` and ``idyn --rep all``.
  Rows are independent; ``integrators`` is never called.
* ``sim_6r``: ``arm_6r`` under ``simulate`` in the state and the momentum
  form with one seeded torque schedule.  Each step depends on the last.
* ``chain_16``: a 16-joint serial chain (alternating z and y axes) through
  both ``christoffel`` variants, ``jerks`` in three representations, a
  short ``idyn --rep all`` table, a short ``simulate`` and the op-count
  gate ``benchmark --n 16``.  The closed forms dominate at this length.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import calibrate

FMT = "%.17g"
H = 1e-3  # simulation step of every simulate command

# Output checks.  Stored reference values come from the unmodified seed
# code at the probe inputs; cross-checks compare two routes to the same
# quantity on the seeded inputs.
REF_RTOL = 1e-9
REF_ATOL = 1e-9
CROSS_RTOL = 1e-9        # relative to the larger side's max magnitude
# The state and the momentum form are two RK4 discretizations of one ODE,
# so their final states differ by O(h^4): about 1e-7 of the state's size
# at h = 1e-3 (and 16 times less at h / 2) on the sim_6r inputs.
SIM_FORMS_RTOL = 1e-6
TORQUE_KNOT_S = 10 * H
JERK_FD_STEP = 1e-5
JERK_FD_RTOL = 1e-6


# A run needs many rounds for its medians, and each operation must stay
# short enough for the calibration around it to follow the host (see
# calibrate.py).  So the table has 300 rows, not the 1000 of a large user
# table, and each simulation 100 steps, not the 1000 of a one-second run:
# an operation then takes 0.15 to 2.5 s, and cost per row or step is already
# flat (fixed per-command cost is under 2 % of fk and idyn at 300 rows).
@dataclass(frozen=True)
class Sizes:
    table_rows: int = 300   # table_6r rows
    sim_steps: int = 100    # sim_6r steps per form
    chain_n: int = 16       # chain_16 joints
    chain_rows: int = 20    # chain_16 idyn rows
    chain_steps: int = 10   # chain_16 simulate steps


SIZES = Sizes()
# The probe round runs first in every process: it warms up the program
# and its outputs are compared with the stored reference values.
PROBE_SEED = 0
PROBE_SIZES = Sizes(table_rows=6, sim_steps=20, chain_rows=3, chain_steps=5)


@dataclass
class Op:
    """One user operation of a round and what it produced."""

    name: str
    units: int = 0                # rows or steps processed (0: one-shot)
    seconds: float = 0.0          # as measured
    cal: float = calibrate.REF_S  # calibration loop time around the operation
    error: str = ""               # why the operation failed; empty if it passed
    data: dict = field(default_factory=dict)
    out_rows: int = 0
    out_bytes: int = 0

    def fail(self, reason):
        if not self.error:
            self.error = reason

    @property
    def ref_seconds(self):
        """Duration at the reference machine speed (see calibrate.py)."""
        return self.seconds * calibrate.REF_S / self.cal


class Runner:
    """Runs operations in a work directory, timing each, calibrating the
    machine speed around it with ``clock`` (a ``calibrate.Clock``) and
    catching every failure; while ``tracer`` is set, each operation is a
    root span."""

    def __init__(self, sc, workdir, clock):
        self.sc = sc
        self.workdir = workdir
        self.clock = clock
        self.tracer = None
        self._cal = clock.sample()

    def _calibrate(self, op):
        after = self.clock.sample()
        op.cal = 0.5 * (self._cal + after)
        self._cal = after

    def path(self, name):
        return os.path.join(self.workdir, name)

    def _span(self, name):
        return self.tracer.span(f"bench.{name}") if self.tracer else nullcontext()

    def cli(self, name, argv, units=0):
        op = Op(name, units)
        sink = io.StringIO()
        code = None
        with self._span(name):
            tic = time.perf_counter()
            try:
                with redirect_stderr(sink), redirect_stdout(sink):
                    code = self.sc.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed operation, not a crash
                op.fail(f"raised {exc!r}: {sink.getvalue().strip()[-300:]}")
            op.seconds = time.perf_counter() - tic
        if code not in (None, 0):
            op.fail(f"exit {code}: {sink.getvalue().strip()[-300:]}")
        self._calibrate(op)
        return op

    def call(self, name, fn, units=0):
        op = Op(name, units)
        with self._span(name):
            tic = time.perf_counter()
            try:
                op.data = fn()
            except Exception as exc:  # a failed operation, not a crash
                op.fail(f"raised {exc!r}")
            op.seconds = time.perf_counter() - tic
        self._calibrate(op)
        return op


def read_csv(op, path, key):
    """Parse a numeric CSV the operation wrote into ``op.data[key]``."""
    if op.error:
        return None
    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        op.out_bytes += os.path.getsize(path)
    except (OSError, ValueError) as err:
        op.fail(f"unreadable output {os.path.basename(path)}: {err}")
        return None
    op.out_rows += arr.shape[0]
    op.data[key] = arr
    return arr


def _vec(values):
    return ",".join(FMT % v for v in values)


def _write_table(path, header, columns):
    rows = np.column_stack(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_vec(r) + "\n" for r in rows)


def _write_traj(path, t, q, qd, qdd):
    n = q.shape[1]
    header = (["t"] + [f"q{j + 1}" for j in range(n)] + [f"qd{j + 1}" for j in range(n)]
              + [f"qdd{j + 1}" for j in range(n)])
    _write_table(path, header, [t, q, qd, qdd])


def chain_model(sc, n):
    """Serial chain of n revolute joints alternating between the z and y
    axes, the same geometry as the ``benchmark`` command's test chain."""
    bodies, joints, parents = [], [], []
    for i in range(n):
        axis = [0.0, 0.0, 1.0] if i % 2 == 0 else [0.0, 1.0, 0.0]
        bodies.append(sc.BodyModel(1.0 + 0.1 * i, [0.25, 0.0, 0.05],
                                   np.diag([0.05, 0.06, 0.04])))
        joints.append(sc.JointModel("revolute", axis=axis, point=[0.3 * i, 0.0, 0.0],
                                    frame="spatial"))
        parents.append(i - 1)
    return sc.ChainModel(bodies, joints, parents, name=f"chain_{n}")


# ----------------------------------------------------------------- inputs

@dataclass
class Inputs:
    model_path: str
    n: int
    rows: int = 0
    steps: int = 0
    traj: str = ""
    q: np.ndarray | None = None          # seeded table (rows, n) and rates
    qd: np.ndarray | None = None
    torques: str = ""
    q0: np.ndarray | None = None
    qd0: np.ndarray | None = None
    qc: np.ndarray | None = None         # christoffel configuration
    jerk_state: tuple = ()               # (q, qd, qdd, qddd)


def _table(rng, rows, n, path):
    t = 0.01 * np.arange(rows)
    q = rng.uniform(-np.pi, np.pi, size=(rows, n))
    qd = rng.normal(size=(rows, n))
    qdd = rng.normal(size=(rows, n))
    _write_traj(path, t, q, qd, qdd)
    return q, qd


def make_inputs(sc, name, seed, sizes, workdir):
    """Write the workload's input files for ``seed`` into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(seed % 2 ** 64)  # numpy takes no negative seed
    join = lambda f: os.path.join(workdir, f)  # noqa: E731
    if name == "table_6r":
        inp = Inputs(str(sc.sample_model_path("arm_6r")), 6, rows=sizes.table_rows,
                     traj=join("traj.csv"))
        inp.q, inp.qd = _table(rng, inp.rows, inp.n, inp.traj)
    elif name == "sim_6r":
        inp = Inputs(str(sc.sample_model_path("arm_6r")), 6, steps=sizes.sim_steps,
                     torques=join("torques.csv"))
        inp.q0 = rng.uniform(-1.0, 1.0, size=6)
        inp.qd0 = rng.normal(scale=0.5, size=6)
        knots = np.arange(0.0, inp.steps * H + TORQUE_KNOT_S, TORQUE_KNOT_S)
        tau = rng.normal(scale=2.0, size=(knots.size, 6))
        _write_table(inp.torques, ["t"] + [f"tau{j + 1}" for j in range(6)], [knots, tau])
    elif name == "chain_16":
        n = sizes.chain_n
        inp = Inputs(join("chain.json"), n, rows=sizes.chain_rows,
                     steps=sizes.chain_steps, traj=join("traj.csv"))
        with open(inp.model_path, "w", encoding="utf-8") as fh:
            fh.write(sc.serialize_model(chain_model(sc, n)))
        inp.qc = rng.uniform(-np.pi, np.pi, size=n)
        inp.jerk_state = tuple(rng.normal(size=n) for _ in range(4))
        inp.q, inp.qd = _table(rng, inp.rows, n, inp.traj)
        inp.q0 = rng.uniform(-0.5, 0.5, size=n)
        inp.qd0 = rng.normal(scale=0.2, size=n)
    else:
        raise KeyError(name)
    return inp


# ----------------------------------------------------------------- rounds

def run_round(runner, name, inp):
    """Run one round of the workload's operations, then parse what they
    wrote; returns the operations by name."""
    out = runner.path
    m = inp.model_path
    ops = {}
    if name == "table_6r":
        common = ["--model", m, "--traj", inp.traj]
        ops["fk"] = runner.cli("fk", ["fk", *common, "--out", out("fk.csv")], inp.rows)
        ops["fk_twists"] = runner.cli(
            "fk_twists", ["fk", *common, "--twists", "--rep", "body",
                          "--out", out("twists.csv")], inp.rows)
        ops["jacobian"] = runner.cli(
            "jacobian", ["jacobian", *common, "--rep", "body", "--out", out("jac.csv")],
            inp.rows)
        ops["idyn"] = runner.cli(
            "idyn", ["idyn", *common, "--rep", "all", "--out", out("idyn.csv")], inp.rows)
    elif name == "sim_6r":
        for form in ("state", "momentum"):
            ops[f"sim_{form}"] = runner.cli(f"sim_{form}", _simulate_argv(
                inp, form, out(f"sim_{form}.csv"), torques=True), inp.steps)
    elif name == "chain_16":
        sc = runner.sc
        for variant, key in (("standard", "christoffel"), ("binet", "christoffel_binet")):
            ops[key] = runner.cli(key, ["christoffel", "--model", m, f"--q={_vec(inp.qc)}",
                                        "--variant", variant, "--out", out(f"{key}.csv")])
        ops["jerks"] = runner.call("jerks", lambda: _jerks(sc, m, inp.jerk_state))
        ops["idyn"] = runner.cli("idyn", ["idyn", "--model", m, "--traj", inp.traj,
                                          "--rep", "all", "--out", out("idyn.csv")], inp.rows)
        ops["sim_state"] = runner.cli("sim_state", _simulate_argv(
            inp, "state", out("sim_state.csv"), torques=False), inp.steps)
        ops["benchmark"] = runner.cli("benchmark", ["benchmark", "--n", str(inp.n),
                                                    "--out", out("bench.csv")])
    else:
        raise KeyError(name)
    _read_outputs(runner, name, ops)
    return ops


def _jerks(sc, model_path, jerk_state):
    model = sc.load_model(model_path)
    state = sc.JointState(*jerk_state)
    return {rep: sc.kinematics.jerks(model, state, rep).jerks
            for rep in ("body", "spatial", "hybrid")}


def _simulate_argv(inp, form, path, torques):
    # "--q0=..." keeps a leading minus sign from reading as an option
    argv = ["simulate", "--model", inp.model_path, f"--q0={_vec(inp.q0)}",
            f"--qd0={_vec(inp.qd0)}", "--T", FMT % (inp.steps * H), "--h", FMT % H,
            "--form", form, "--out", path]
    return argv + (["--torques", inp.torques] if torques else [])


def _read_outputs(runner, name, ops):
    out = runner.path
    files = {"fk": "fk.csv", "fk_twists": "twists.csv", "jacobian": "jac.csv",
             "idyn": "idyn.csv", "sim_state": "sim_state.csv",
             "sim_momentum": "sim_momentum.csv"}
    for key, op in ops.items():
        if key in files:
            read_csv(op, out(files[key]), "out")
        if key.startswith("sim_"):
            read_csv(op, out(files[key]) + ".report.csv", "report")
    for key in ("christoffel", "christoffel_binet"):
        if key in ops:
            arr = read_csv(ops[key], out(f"{key}.csv"), "gamma")
            if arr is not None:  # columns i, j, k, gamma in C order
                ops[key].data["gamma"] = arr[:, 3]
    if "benchmark" in ops and not ops["benchmark"].error:
        op = ops["benchmark"]
        try:
            with open(out("bench.csv"), encoding="utf-8") as fh:
                lines = fh.read().splitlines()[1:]
            op.out_bytes += os.path.getsize(out("bench.csv"))
            # columns: rep, n, 5 predicted, 5 measured, exact_match, wall
            op.data["counts"] = np.array([[int(v) for v in ln.split(",")[1:13]]
                                          for ln in lines])
            op.out_rows += len(lines)
        except (OSError, ValueError) as err:
            op.fail(f"unreadable benchmark output: {err}")


# ----------------------------------------------------------------- checks

def _close(a, b, rtol=CROSS_RTOL):
    """Equal shapes, finite a, and max |a - b| <= rtol * (1 + max |b|)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape or not np.all(np.isfinite(a)):
        return False
    return float(np.abs(a - b).max(initial=0.0)) <= rtol * (1.0 + float(np.abs(b).max(initial=0.0)))


def _exp_screw(s, theta):
    """4x4 exponentials of one joint screw at many angles (textbook
    closed form, independent of the package's kernels)."""
    w, v = s[:3], s[3:]
    out = np.zeros((theta.size, 4, 4))
    out[:, 3, 3] = 1.0
    if np.linalg.norm(w) < 1e-12:
        out[:, :3, :3] = np.eye(3)
        out[:, :3, 3] = theta[:, None] * v
        return out
    W = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    W2 = W @ W
    s_, c_ = np.sin(theta)[:, None, None], np.cos(theta)[:, None, None]
    out[:, :3, :3] = np.eye(3) + s_ * W + (1.0 - c_) * W2
    g = theta[:, None, None] * np.eye(3) + (1.0 - c_) * W + (theta[:, None, None] - s_) * W2
    out[:, :3, 3] = g @ v
    return out


def fk_oracle(model, q):
    """Body poses (rows, n, 12) as rotation rows then translation."""
    rows, n = q.shape
    prod = [None] * n
    out = np.zeros((rows, n, 12))
    for i in range(n):
        step = _exp_screw(model.joints[i].screw_spatial, q[:, i])
        p = model.parent[i]
        prod[i] = step if p < 0 else prod[p] @ step
        ref = model.bodies[i].ref_pose
        ref4 = np.eye(4)
        ref4[:3, :3], ref4[:3, 3] = ref.rot, ref.trans
        pose = prod[i] @ ref4
        out[:, i, :9] = pose[:, :3, :3].reshape(rows, 9)
        out[:, i, 9:] = pose[:, :3, 3]
    return out


def _rep_deviation(q_all, n):
    blocks = [q_all[:, k * n:(k + 1) * n] for k in range(3)]
    return np.max([np.abs(blocks[a] - blocks[b]).max(axis=1)
                   for a in range(3) for b in range(a + 1, 3)], axis=0)


def _check_idyn(op, inp):
    arr = op.data.get("out")
    if arr is None:
        return
    n = inp.n
    if arr.shape != (inp.rows, 3 * n + 2):
        op.fail(f"idyn output shape {arr.shape}")
        return
    dev = _rep_deviation(arr[:, 1:1 + 3 * n], n)
    scale = 1.0 + np.abs(arr[:, 1:1 + 3 * n]).max()
    if not np.all(np.isfinite(arr)) or dev.max() > CROSS_RTOL * scale:
        op.fail(f"representations disagree by {dev.max():.3g}")
    elif not _close(arr[:, -1], dev, rtol=1e-6):
        op.fail("max_rep_deviation column does not match the three blocks")


def _check_sim(op, inp):
    arr = op.data.get("out")
    if arr is None:
        return
    n = inp.n
    if arr.shape != (inp.steps + 1, 1 + 3 * n) or not np.all(np.isfinite(arr)):
        op.fail(f"simulation output shape {arr.shape} or non-finite values")
    elif not _close(arr[:, 0], H * np.arange(inp.steps + 1), rtol=1e-12):
        op.fail("simulation times are not the requested grid")
    rep = op.data.get("report")
    if rep is not None and (rep.shape[0] != inp.steps + 1 or not np.all(np.isfinite(rep))):
        op.fail("step report is incomplete or non-finite")


def check_round(sc, name, ops, inp):
    """Mark every operation whose output fails a check."""
    if name in ("table_6r", "chain_16"):
        _check_idyn(ops["idyn"], inp)
    if name == "table_6r":
        model = sc.load_model(inp.model_path)
        n, rows = inp.n, inp.rows
        fk = ops["fk"].data.get("out")
        if fk is not None:
            if fk.shape != (rows, 1 + 12 * n) or not _close(
                    fk[:, 1:].reshape(rows, n, 12), fk_oracle(model, inp.q)):
                ops["fk"].fail("poses differ from the product-of-exponentials oracle")
        tw = ops["fk_twists"].data.get("out")
        jac = ops["jacobian"].data.get("out")
        if tw is not None and jac is not None:
            if jac.shape != (rows, 1 + 6 * n * n) or tw.shape != (rows, 1 + 6 * n):
                ops["jacobian"].fail(f"jacobian/twists shapes {jac.shape} {tw.shape}")
            else:
                jqd = np.einsum("rij,rj->ri", jac[:, 1:].reshape(rows, 6 * n, n), inp.qd)
                if not _close(jqd, tw[:, 1:]):
                    ops["fk_twists"].fail("twists differ from J qd")
    elif name == "sim_6r":
        for op in ops.values():
            _check_sim(op, inp)
        a, b = ops["sim_state"].data.get("out"), ops["sim_momentum"].data.get("out")
        if a is not None and b is not None and a.shape == b.shape:
            end_a, end_b = a[-1, 1:1 + 2 * inp.n], b[-1, 1:1 + 2 * inp.n]
            if not _close(end_b, end_a, rtol=SIM_FORMS_RTOL):
                diff = np.abs(end_a - end_b).max()
                ops["sim_momentum"].fail(f"final state differs from state form by {diff:.3g}")
    elif name == "chain_16":
        _check_chain(sc, ops, inp)


def _check_chain(sc, ops, inp):
    n = inp.n
    gammas = {}
    for key in ("christoffel", "christoffel_binet"):
        op = ops[key]
        g = op.data.get("gamma")
        if g is None:
            continue
        if g.size != n ** 3:
            op.fail(f"christoffel output has {g.size} entries")
            continue
        g = g.reshape(n, n, n)
        if not _close(g, np.swapaxes(g, 1, 2)):
            op.fail("christoffel symbols are not symmetric in the last two indices")
        gammas[key] = g
    if len(gammas) == 2 and not _close(gammas["christoffel_binet"], gammas["christoffel"]):
        ops["christoffel_binet"].fail("binet variant differs from the standard variant")

    op = ops["jerks"]
    if not op.error:
        model = sc.load_model(inp.model_path)
        q, qd, qdd, qddd = inp.jerk_state
        h = JERK_FD_STEP
        for rep, jerk in op.data.items():
            acc = []
            for s in (h, -h):
                st = sc.JointState(q + qd * s + qdd * s ** 2 / 2 + qddd * s ** 3 / 6,
                                   qd + qdd * s + qddd * s ** 2 / 2, qdd + qddd * s)
                acc.append(sc.kinematics.accelerations(model, st, rep).accels)
            if not _close(jerk, (acc[0] - acc[1]) / (2 * h), rtol=JERK_FD_RTOL):
                op.fail(f"{rep} jerks differ from differentiated accelerations")

    _check_sim(ops["sim_state"], inp)

    op = ops["benchmark"]
    counts = op.data.get("counts")
    if counts is not None:
        if counts.shape != (3, 12) or not np.all(counts[:, 0] == n) \
                or not np.all(counts[:, 11] == 1) \
                or not np.array_equal(counts[:, 1:6], counts[:, 6:11]):
            op.fail("operation counts differ from predict_op_counts")


def compare_reference(ops, ref):
    """Compare the probe round's outputs with the stored reference values."""
    for key, stored in ref.items():
        op = ops.get(key)
        if op is None:
            continue
        for field_name, values in stored.items():
            got = op.data.get(field_name)
            if got is None:
                op.fail(f"no {field_name} output to compare with the reference")
                continue
            got = np.asarray(got, float)
            want = np.asarray(values, float)
            if got.shape != want.shape or not np.allclose(got, want, rtol=REF_RTOL,
                                                          atol=REF_ATOL):
                op.fail(f"{field_name} differs from the stored reference")


def reference_data(ops):
    """What the reference file stores for a probe round: every parsed
    output except the binet tensor (checked against the standard one)."""
    out = {}
    for key, op in ops.items():
        if key == "christoffel_binet":
            continue
        # 12 significant digits: far inside REF_RTOL, and a smaller file
        out[key] = {field_name: np.vectorize(lambda v: float(f"{v:.12g}"))(
                        np.asarray(value, float)).tolist()
                    for field_name, value in op.data.items()}
    return out
