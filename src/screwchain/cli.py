"""Batch command-line front end.

Commands load a chain model file, run kinematics/dynamics/simulation or
the operation-count benchmark over CSV trajectory tables, and emit CSV.
Exit codes: 0 success, 1 I/O failure, 2 validation failure, 3 numerical
failure.  All numeric output is deterministic; floats are printed with 17
significant digits so that values round-trip exactly.
"""

from __future__ import annotations

import argparse
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


def _fmt_row(values):
    return ",".join(FMT % v for v in values)


def _write_csv(path, header, rows):
    """Write the header and then one line per row as it is formatted, so
    that the text of the whole table is never held in memory (nor the
    rows, when ``rows`` computes them as it is iterated)."""
    def emit(fh):
        fh.write(",".join(header) + "\n")
        fh.writelines(_fmt_row(r) + "\n" for r in rows)

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
    and the times in the first column strictly increasing."""
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a table without rows; that is reported below
            warnings.simplefilter("ignore", UserWarning)
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as err:
        raise CliError(EXIT_IO, f"cannot read {what}: {err}") from None
    except ValueError as err:
        raise CliError(EXIT_VALIDATION, f"malformed {what} CSV: {err}") from None
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


def _read_traj(path, n, need=1):
    """Trajectory table: t plus n columns per provided derivative level.

    ``need`` is the number of required blocks (1 = q, 2 = q,qd, 3 =
    q,qd,qdd).  Returns (t, q, qd | None, qdd | None).
    """
    raw = _load_table(path, "trajectory")
    cols = raw.shape[1]
    blocks = (cols - 1) // n if n else 0
    if cols != 1 + blocks * n or blocks < 1 or blocks > 3:
        raise CliError(EXIT_VALIDATION,
                       f"trajectory has {cols} columns; expected 1 + {n}, "
                       f"{2 * n} or {3 * n} for a {n}-joint model")
    if blocks < need:
        raise CliError(EXIT_VALIDATION,
                       f"trajectory provides {blocks} block(s) of joint data; "
                       f"this command needs {need}")
    t = raw[:, 0]
    q = raw[:, 1:1 + n]
    qd = raw[:, 1 + n:1 + 2 * n] if blocks >= 2 else None
    qdd = raw[:, 1 + 2 * n:1 + 3 * n] if blocks >= 3 else None
    return t, q, qd, qdd


def _parse_vector(text, n, name):
    if text is None:
        return np.zeros(n)
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise CliError(EXIT_VALIDATION, f"{name}: expected comma-separated floats") from None
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
    print(f"gravity: [{_fmt_row(model.gravity)}]")
    return EXIT_OK


def cmd_fk(args):
    model = _load_model_checked(args.model)
    n = model.n
    t, q, qd, _ = _read_traj(args.traj, n, need=2 if args.twists else 1)
    if args.twists:
        header = ["t"] + [f"body{i + 1}_V{c + 1}" for i in range(n) for c in range(6)]

        def row(idx):
            cache = kin.twists(model, q[idx], qd[idx], args.rep)
            return [t[idx]] + list(cache.twists.reshape(-1))
    else:
        header = ["t"] + [f"body{i + 1}_{name}" for i in range(n)
                          for name in ("R11", "R12", "R13", "R21", "R22", "R23",
                                       "R31", "R32", "R33", "r1", "r2", "r3")]

        def row(idx):
            poses = kin.fk(model, q[idx])
            out = [t[idx]]
            for p in poses:
                out.extend(p.rot.reshape(-1))
                out.extend(p.trans)
            return out

    _write_csv(args.out, header, (row(idx) for idx in range(len(t))))
    return EXIT_OK


def cmd_jacobian(args):
    model = _load_model_checked(args.model)
    n = model.n
    t, q, _, _ = _read_traj(args.traj, n, need=1)
    header = ["t"] + [f"J{r + 1}_{c + 1}" for r in range(6 * n) for c in range(n)]

    def row(idx):
        sj = kin.jacobian(model, q[idx], args.rep)
        return [t[idx]] + list(sj.J.reshape(-1))

    _write_csv(args.out, header, (row(idx) for idx in range(len(t))))
    return EXIT_OK


def cmd_idyn(args):
    model = _load_model_checked(args.model)
    n = model.n
    t, q, qd, qdd = _read_traj(args.traj, n, need=3)
    reps = ("body", "spatial", "hybrid") if args.rep == "all" else (args.rep,)
    header = ["t"]
    for rep in reps:
        header += [f"Q{j + 1}_{rep}" if args.rep == "all" else f"Q{j + 1}"
                   for j in range(n)]
    if args.rep == "all":
        header.append("max_rep_deviation")

    def row(idx):
        out = [t[idx]]
        results = []
        for rep in reps:
            results.append(dyn.idyn(model, q[idx], qd[idx], qdd[idx], rep,
                                    gravity=not args.no_gravity))
            out.extend(results[-1])
        if args.rep == "all":
            dev = max(np.abs(results[a] - results[b]).max()
                      for a in range(len(results)) for b in range(a + 1, len(results)))
            out.append(dev)
        return out

    rows = [row(idx) for idx in range(len(t))]
    if not all(np.all(np.isfinite(r)) for r in rows):
        raise CliError(EXIT_NUMERICAL, "non-finite torque encountered")
    _write_csv(args.out, header, rows)
    return EXIT_OK


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

    def torque(t, q, qd):
        # np.interp of every column from one search: the end rows outside
        # the knots, the row at a knot, a line from the knot before t
        k = np.searchsorted(tt, t, side="right") - 1
        if k < 0:
            return tq[0].copy()
        if k == len(tt) - 1 or t == tt[k]:
            return tq[k].copy()
        return slope[k] * (t - tt[k]) + tq[k]

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
    rows = [[traj.times[k]] + list(traj.q[k]) + list(traj.qd[k]) + list(traj.qdd[k])
            for k in range(len(traj.times))]
    _write_csv(args.out, header, rows)

    rep_path = args.report
    if rep_path is None and args.out not in (None, "-"):
        rep_path = args.out + ".report.csv"
    if rep_path is not None:
        rheader = ["t", "energy", "momentum_norm", "constraint_drift"]
        rrows = [[r.t, r.energy, float(np.linalg.norm(r.momentum_spatial)),
                  r.constraint_drift] for r in traj.reports]
        _write_csv(rep_path, rheader, rrows)
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
    gammas = {v: dyn.christoffel(model, q, variant=v) for v in ("standard", "binet")}
    gamma = gammas[args.variant]
    deviation = float(np.abs(gammas["standard"] - gammas["binet"]).max())
    header = ["i", "j", "k", "gamma"]
    rows = ((i + 1, j + 1, k + 1, gamma[i, j, k])
            for i in range(n) for j in range(n) for k in range(n))
    _write_csv(args.out, header, rows)
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
    lines = [",".join(header)]
    all_match = True
    for rep in reps:
        for n in sizes:
            model = _benchmark_chain(n)
            rng = np.random.default_rng(1234)
            q, qd, qdd = (rng.normal(size=n) for _ in range(3))
            res = dyn.idyn(model, q, qd, qdd, rep, gravity=False, full=True)
            pred = dyn.predict_op_counts(rep, n)
            meas = res.report
            match = (meas.frame_transforms_screw == pred.frame_transforms_screw
                     and meas.frame_transforms_tensor == pred.frame_transforms_tensor
                     and meas.lie_brackets == pred.lie_brackets
                     and meas.rotations_screw == pred.rotations_screw
                     and meas.translations_screw == pred.translations_screw)
            all_match = all_match and match
            samples = []
            for _ in range(args.trials):
                tic = time.perf_counter()
                dyn.idyn(model, q, qd, qdd, rep, gravity=False)
                samples.append(time.perf_counter() - tic)
            wall = float(np.median(samples))
            lines.append(",".join(str(v) for v in (
                rep, n, pred.frame_transforms_screw, pred.frame_transforms_tensor,
                pred.lie_brackets, pred.rotations_screw, pred.translations_screw,
                meas.frame_transforms_screw, meas.frame_transforms_tensor,
                meas.lie_brackets, meas.rotations_screw, meas.translations_screw,
                int(match), FMT % wall)))
    text = "\n".join(lines) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise CliError(EXIT_IO, f"cannot write {args.out}: {err}") from None
    return EXIT_OK if all_match else EXIT_NUMERICAL


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _build_parser():
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

    for name in ("simulate", "fdyn"):
        p = sub.add_parser(name, help="integrate the chain forward in time")
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
