"""Batch command-line front end.

Commands load a chain model file, run kinematics/dynamics/simulation or
the operation-count benchmark over CSV trajectory tables, and emit CSV.
Exit codes: 0 success, 1 I/O failure, 2 validation failure, 3 numerical
failure.  A table command (``fk``, ``jacobian``, ``idyn``) exits 3 at the
first output value that is not finite, with a message that names the
quantity and the data row; the rows before it stay written.
``christoffel`` exits 3 when a symbol at ``--q`` is not finite, and
``simulate`` aborts with its partial output written.  All numeric output
is deterministic; floats are printed with 17 significant digits so that
values round-trip exactly.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import sys
import time
import warnings

import numpy as np

from . import dynamics as dyn
from . import integrators as integ
from . import kinematics as kin
from .model import ChainModel, ModelError, load_model

FMT = "%.17g"

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _write_csv(path, header, rows, fmt=None):
    """Write the header and then one line per row, each the ``%`` of the
    row format ``fmt`` (by default ``FMT`` in every column) with the row's
    values, so that the text of the whole table is never held in memory
    (nor the rows, when ``rows`` computes them as it is iterated)."""
    line = (fmt or ",".join([FMT] * len(header))) + "\n"

    def emit(fh):
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(r) for r in rows)

    if path is None or path == "-":
        emit(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh)
    except OSError as err:
        raise CliError(EXIT_IO, f"cannot write {path}: {err}") from None


def _load_model_checked(path) -> ChainModel:
    try:
        return load_model(path)
    except OSError as err:
        raise CliError(EXIT_IO, f"cannot read model: {err}") from None
    except ModelError as err:
        raise CliError(EXIT_VALIDATION, f"invalid model: {err}") from None


def _load_table(path, what):
    """Numeric CSV table below one header line; every entry must be finite
    and the times in the first column strictly increasing.  Every message
    names its cell by 1-based data row and column (:func:`_table_fault`)."""
    with warnings.catch_warnings():
        # loadtxt warns on a table without rows; that is reported below
        warnings.simplefilter("ignore", UserWarning)
        try:
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except OSError as err:
            raise CliError(EXIT_IO, f"cannot read {what}: {err}") from None
        except ValueError:
            raise CliError(EXIT_VALIDATION, f"{what} {_table_fault(path)}") from None
    if raw.shape[0] == 0:
        raise CliError(EXIT_VALIDATION, f"{what} has no data rows")
    bad = np.argwhere(~np.isfinite(raw))
    if bad.size:
        row, col = bad[0]
        raise CliError(EXIT_VALIDATION, f"{what} data row {row + 1}, column {col + 1}: "
                                        f"value {raw[row, col]} is not finite")
    if np.any(np.diff(raw[:, 0]) <= 0):
        raise CliError(EXIT_VALIDATION, f"{what} times must be strictly increasing")
    return raw


def _table_fault(path) -> str:
    """Where np.loadtxt refused the table at ``path``, read as it reads it
    ('#' starts a comment, empty lines are skipped): the first row whose
    width differs from the first row's, or the first cell that is not a number."""
    with open(path, "rb") as fh:
        lines = fh.read().decode("utf-8", errors="replace").split("\n")[1:]
    rows = [cells for cells in (line.removesuffix("\r").split("#")[0].split(",")
                                for line in lines) if cells != [""]]
    for r, cells in enumerate(rows, 1):
        k, width = len(cells), len(rows[0])
        if k != width:
            return (f"data row {r}, column {min(k, width) + 1}: the row has {k} columns, "
                    f"data row 1 has {width}")
        for c, cell in enumerate(cells, 1):
            if _cell_number(cell) is None:
                return f"data row {r}, column {c}: {cell.strip()!r} is not a number"
    return "is not a CSV table of numbers"


def _cell_number(cell):
    """The number in one CSV cell as np.loadtxt reads it, and so as
    :func:`_load_table` does, or None when it is not one."""
    with warnings.catch_warnings():  # an empty cell is no number, not a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            value = np.loadtxt([cell], delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None
    return float(value[0]) if value.size == 1 else None


def _read_traj(path, n, need):
    """Trajectory table: t, then n columns of q and, where given, of qd and
    qdd.  Returns t and the ``need`` blocks the command uses (1 = q, 2 =
    q, qd, 3 = q, qd, qdd), so (t, q), (t, q, qd) or (t, q, qd, qdd)."""
    raw = _load_table(path, "trajectory")
    cols = raw.shape[1]
    blocks = (cols - 1) // n
    if cols != 1 + blocks * n or not 1 <= blocks <= 3:
        raise CliError(EXIT_VALIDATION,
                       f"trajectory has {cols} columns; expected {1 + n}, "
                       f"{1 + 2 * n} or {1 + 3 * n} for a {n}-joint model")
    if blocks < need:
        raise CliError(EXIT_VALIDATION,
                       f"trajectory provides {blocks} block(s) of joint data; "
                       f"this command needs {need}")
    return (raw[:, 0], *(raw[:, 1 + b * n:1 + (b + 1) * n] for b in range(need)))


def _parse_vector(text, n, name):
    """The n finite numbers of a flag's comma-separated text, read in one
    np.loadtxt call as a table row of :func:`_load_table` is, so '1_000' or
    non-ASCII digits, which Python's float takes, exit 2 with a message that
    names the flag and the cell: only then are the cells read one by one
    (:func:`_cell_number`), as :func:`_table_fault` reads a refused table."""
    if text is None:
        return np.zeros(n)
    cells = text.split(",")
    with warnings.catch_warnings():  # an empty flag is no number, not a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            vec = np.loadtxt([text], delimiter=",", comments=None, ndmin=1)
        except ValueError:
            vec = np.zeros(0)
    if vec.size != len(cells):
        values = [_cell_number(cell) for cell in cells]
        if None in values:
            cell = cells[values.index(None)]
            raise CliError(EXIT_VALIDATION, f"{name}: {cell.strip()!r} is not a number")
        vec = np.array(values)
    if not np.all(np.isfinite(vec)):
        raise CliError(EXIT_VALIDATION, f"{name}: values must be finite")
    if vec.size != n:
        raise CliError(EXIT_VALIDATION, f"{name}: expected {n} values, got {vec.size}")
    return vec


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_check(args):
    model = _load_model_checked(args.model)
    name = model.name or "(unnamed)"
    print(f"model {name}: {model.n} bodies, {model.dof()} DOF, "
          f"total mass {FMT % model.total_mass()} kg")
    kinds = ",".join(j.kind for j in model.joints)
    print(f"joints: {kinds}")
    print(f"gravity: [{','.join(FMT % g for g in model.gravity)}]")
    return EXIT_OK


def _table_command(args, need, header, row, quantity):
    """Run a trajectory-table command: load the model, read t and the
    ``need`` blocks of the trajectory, and write the header ``["t"] +
    header(n)``, then t and ``row(model, q[, qd[, qdd]])`` of each data
    row.  The first row with a value that is not finite ends the table
    with exit 3, naming ``quantity`` and the data row; the rows before it
    stay written."""
    model = _load_model_checked(args.model)
    t, *blocks = _read_traj(args.traj, model.n, need)

    def rows():
        for idx, (ti, *data) in enumerate(zip(t.tolist(), *blocks), 1):
            values = row(model, *data)
            if not np.all(np.isfinite(values)):
                raise CliError(EXIT_NUMERICAL, f"non-finite {quantity} in data row {idx}")
            yield (ti, *values.tolist())  # one call, not a numpy scalar per value

    with np.errstate(over="ignore", invalid="ignore"):  # rows() reports it
        _write_csv(args.out, ["t"] + header(model.n), rows())
    return EXIT_OK


_POSE_COLUMNS = ("R11", "R12", "R13", "R21", "R22", "R23", "R31", "R32", "R33",
                 "r1", "r2", "r3")


def cmd_fk(args):
    if args.twists:
        return _table_command(
            args, 2, lambda n: [f"body{i + 1}_V{c + 1}" for i in range(n) for c in range(6)],
            lambda model, q, qd: kin.twists(model, q, qd, args.rep).twists.reshape(-1),
            "twist")

    def row(model, q):
        return np.concatenate([np.append(p.rot, p.trans) for p in kin.fk(model, q)])

    return _table_command(
        args, 1, lambda n: [f"body{i + 1}_{c}" for i in range(n) for c in _POSE_COLUMNS],
        row, "pose")


def cmd_jacobian(args):
    return _table_command(
        args, 1, lambda n: [f"J{r + 1}_{c + 1}" for r in range(6 * n) for c in range(n)],
        lambda model, q: kin.jacobian(model, q, args.rep).J.reshape(-1), "Jacobian")


def cmd_idyn(args):
    gravity = not args.no_gravity
    if args.rep != "all":
        return _table_command(
            args, 3, lambda n: [f"Q{j + 1}" for j in range(n)],
            lambda model, q, qd, qdd: dyn.idyn(model, q, qd, qdd, args.rep, gravity=gravity),
            "torque")
    reps = ("body", "spatial", "hybrid")

    def header(n):
        return [f"Q{j + 1}_{rep}" for rep in reps for j in range(n)] + ["max_rep_deviation"]

    def row(model, q, qd, qdd):
        tau = [dyn.idyn(model, q, qd, qdd, rep, gravity=gravity) for rep in reps]
        dev = max(np.abs(a - b).max() for a, b in itertools.combinations(tau, 2))
        return np.append(tau, dev)

    return _table_command(args, 3, header, row, "torque")


def _torque_fn_from_file(path, n):
    if path is None:
        return None
    raw = _load_table(path, "torque file")
    if raw.shape[1] != 1 + n:
        raise CliError(EXIT_VALIDATION,
                       f"torque file has {raw.shape[1]} columns, expected {1 + n}")
    tt, tq = raw[:, 0], raw[:, 1:]
    with np.errstate(over="ignore"):  # knots closer than 1e-308 s apart
        slope = np.diff(tq, axis=0) / np.diff(tt)[:, None]
    knots = tt.tolist()  # a search of a list costs less than np.searchsorted

    def torque(t, q, qd):
        # np.interp of every column from one search: the end rows outside
        # the knots, the row at a knot, a line from the knot before t
        k = bisect.bisect_right(knots, t) - 1
        if k < 0:
            return tq[0].copy()
        if k == len(knots) - 1 or t == knots[k]:
            return tq[k].copy()
        return slope[k] * (t - knots[k]) + tq[k]

    return torque


def cmd_simulate(args):
    model = _load_model_checked(args.model)
    n = model.n
    q0 = _parse_vector(args.q0, n, "--q0")
    qd0 = _parse_vector(args.qd0, n, "--qd0")
    torque = _torque_fn_from_file(args.torques, n)
    try:
        traj = integ.chain_simulate(model, q0, qd0, torque=torque, T=args.T, h=args.h,
                                    form=args.form, gravity=not args.no_gravity)
    except ValueError as err:  # bad --T or --h; failures mid-run truncate instead
        raise CliError(EXIT_VALIDATION, str(err)) from None

    header = (["t"] + [f"q{j + 1}" for j in range(n)]
              + [f"qd{j + 1}" for j in range(n)] + [f"qdd{j + 1}" for j in range(n)])
    _write_csv(args.out, header,
               np.column_stack([traj.times, traj.q, traj.qd, traj.qdd]).tolist())

    rep_path = args.report
    if rep_path is None and args.out not in (None, "-"):
        rep_path = args.out + ".report.csv"
    if rep_path is not None:
        rheader = ["t", "energy", "momentum_norm", "constraint_drift"]
        norms = np.linalg.norm([r.momentum_spatial for r in traj.reports], axis=1).tolist()
        _write_csv(rep_path, rheader, [(r.t, r.energy, norm, r.constraint_drift)
                                       for r, norm in zip(traj.reports, norms)])
    if traj.abort_reason is not None:
        raise CliError(EXIT_NUMERICAL,
                       f"simulation aborted in step {traj.abort_step} from "
                       f"t={traj.times[-1]:g}: {traj.abort_reason}; "
                       f"partial output written")
    return EXIT_OK


def cmd_christoffel(args):
    model = _load_model_checked(args.model)
    n = model.n
    q = _parse_vector(args.q, n, "--q")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        gammas = {v: dyn.christoffel(model, q, variant=v) for v in ("standard", "binet")}
        gamma = gammas[args.variant]
        deviation = float(np.abs(gammas["standard"] - gammas["binet"]).max())
    if not np.all(np.isfinite(gamma)):
        raise CliError(EXIT_NUMERICAL, "non-finite Christoffel symbol at --q")
    header = ["i", "j", "k", "gamma"]
    index = np.indices((n, n, n)).reshape(3, -1) + 1  # (i, j, k), 1-based, row-major
    rows = zip(*index.tolist(), gamma.reshape(-1).tolist())
    _write_csv(args.out, header, rows, fmt="%d,%d,%d," + FMT)
    print(f"variant_deviation {FMT % deviation}", file=sys.stderr)
    return EXIT_OK


def _benchmark_chain(n):
    """Deterministic serial test chain with n revolute joints."""
    from .model import BodyModel, JointModel

    bodies, joints, parents = [], [], []
    for i in range(n):
        axis = np.array([0.0, 0.0, 1.0]) if i % 2 == 0 else np.array([0.0, 1.0, 0.0])
        bodies.append(BodyModel(1.0 + 0.1 * i, [0.25, 0.0, 0.05],
                                np.diag([0.05, 0.06, 0.04])))
        joints.append(JointModel("revolute", axis=axis, point=[0.3 * i, 0.0, 0.0],
                                 frame="spatial"))
        parents.append(i - 1)
    return ChainModel(bodies, joints, parents)


def cmd_benchmark(args):
    reps = [r.strip() for r in args.reps.split(",")]
    allowed = ("body", "spatial", "hybrid")
    if any(rep not in allowed for rep in reps):
        raise CliError(EXIT_VALIDATION, f"--reps: expected a comma-separated subset of "
                                        f"{', '.join(allowed)}; got {args.reps!r}")
    try:
        sizes = [int(v) for v in args.n.split(",")]
    except ValueError:
        raise CliError(EXIT_VALIDATION, "--n: expected comma-separated integers") from None
    if min(sizes) < 1:
        raise CliError(EXIT_VALIDATION, "--n: every chain size must be at least 1")
    if args.trials < 1:
        raise CliError(EXIT_VALIDATION, "--trials must be at least 1")
    header = ["rep", "n", "pred_screw", "pred_tensor", "pred_brackets",
              "pred_rot", "pred_trans", "meas_screw", "meas_tensor",
              "meas_brackets", "meas_rot", "meas_trans", "exact_match",
              "median_wall_s"]
    fields = ("frame_transforms_screw", "frame_transforms_tensor", "lie_brackets",
              "rotations_screw", "translations_screw")
    models = {n: _benchmark_chain(n) for n in dict.fromkeys(sizes)}
    rows = []
    for rep in reps:
        for n in sizes:
            model = models[n]
            rng = np.random.default_rng(1234)
            q, qd, qdd = (rng.normal(size=n) for _ in range(3))
            meas = dyn.idyn(model, q, qd, qdd, rep, gravity=False, full=True).report
            pred = dyn.predict_op_counts(rep, n)
            samples = []
            for _ in range(args.trials):
                tic = time.perf_counter()
                dyn.idyn(model, q, qd, qdd, rep, gravity=False)
                samples.append(time.perf_counter() - tic)
            rows.append([rep, n, *(getattr(pred, f) for f in fields),
                         *(getattr(meas, f) for f in fields), int(meas == pred),
                         float(np.median(samples))])
    _write_csv(args.out, header, rows, fmt="%s," + "%d," * 12 + FMT)
    return EXIT_OK if all(row[-2] for row in rows) else EXIT_NUMERICAL


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The parser of every subcommand, built once: argparse keeps no state
    between calls of ``parse_args``."""
    parser = argparse.ArgumentParser(
        prog="screwchain",
        description="Batch kinematics, dynamics, and simulation for "
                    "tree-topology rigid-body chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, traj=False, rep=None, out=True):
        p.add_argument("--model", required=True, help="model file (JSON)")
        if traj:
            p.add_argument("--traj", required=True, help="trajectory CSV")
        if rep is not None:
            p.add_argument("--rep", default="body", choices=rep,
                           help="twist representation")
        if out:
            p.add_argument("--out", default=None, help="output CSV ('-' = stdout)")

    p = sub.add_parser("check", help="validate a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fk", help="forward kinematics (poses or twists)")
    add_common(p, traj=True, rep=("body", "spatial", "hybrid", "mixed"))
    p.add_argument("--twists", action="store_true",
                   help="emit body twists instead of poses (needs qd columns)")
    p.set_defaults(fn=cmd_fk)

    p = sub.add_parser("jacobian", help="stacked system Jacobian per sample")
    add_common(p, traj=True, rep=("body", "spatial", "hybrid", "mixed"))
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("idyn", help="inverse dynamics over a trajectory")
    add_common(p, traj=True, rep=("body", "spatial", "hybrid", "mixed", "all"))
    p.add_argument("--no-gravity", action="store_true")
    p.set_defaults(fn=cmd_idyn)

    for name, text in (("simulate", "integrate the chain forward in time"),
                       ("fdyn", "alias of simulate")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--model", required=True)
        p.add_argument("--q0", default=None, help="initial joint positions")
        p.add_argument("--qd0", default=None, help="initial joint rates")
        p.add_argument("--torques", default=None,
                       help="torque schedule CSV (default: zero)")
        p.add_argument("--T", type=float, default=1.0)
        p.add_argument("--h", type=float, default=1e-3)
        p.add_argument("--form", default="state", choices=("state", "momentum"))
        p.add_argument("--no-gravity", action="store_true")
        p.add_argument("--out", default=None)
        p.add_argument("--report", default=None, help="step report CSV path")
        p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("christoffel", help="Christoffel symbol tensor at one q")
    p.add_argument("--model", required=True)
    p.add_argument("--q", default=None, help="joint positions (default zeros)")
    p.add_argument("--variant", default="standard", choices=("standard", "binet"))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_christoffel)

    p = sub.add_parser("benchmark", help="operation counts and timings")
    p.add_argument("--reps", default="body,spatial,hybrid")
    p.add_argument("--n", default="2,4,10")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
