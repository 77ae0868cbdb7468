"""Time integration: classical RK4 in joint space, the Munthe-Kaas
Lie-group RK4 on SE(3) for absolute rigid-body motion, and the
spatial-momentum formulation with conservation diagnostics.

Joint space is a plain vector space for the supported joints, so chain
trajectories use ordinary RK4 on (q, qd) or on (q, spatial momenta); the
Lie-group machinery is exercised by the absolute-motion integrators.  The
right-hand sides are :func:`screwchain.dynamics.fdyn` and the body of
:func:`screwchain.dynamics.momentum_rhs`, which share one configuration
pass, its closed-form bias J^T (M Jdot qd - ad^T_V M V - loads) and the
SPD solve of that module; the free body recovers its twist through its
constant body inertia.

A chain sample's qd and qdd come from RK4's first stage there, which the
step reuses.  The sample keeps what its report reads of the configuration
pass that stage solved on (a momentum-form stage hands its pass to its
sample, a state-form sample reads the pass ``fdyn`` kept): mass matrix,
subtree momenta, pseudo-inertias and pose stack.  The reports of
``REPORT_CHUNK`` samples are formed together by a few stacked products
once the last of them is kept, and the rest at the end or abort of the
run, so a run costs one configuration pass, one backward sweep and one
factorization per RK4 stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BodyModel, ChainModel, spatial_inertia_body
from .se3 import Pose, _finite, adjoint, dexp_inv, exp_se3
from . import dynamics as dyn
from .kinematics import _twist_map

__all__ = [
    "RigidBodyState",
    "StepReport",
    "FreeBodyTrajectory",
    "ChainTrajectory",
    "mk_step",
    "free_body_simulate",
    "chain_simulate",
]

# Polar re-projection cadence for long pose integrations.
REORTHONORMALIZE_EVERY = 1000
# Samples of a chain run whose reports stacked products form together:
# enough to spread numpy's cost per call, few enough to keep a few MB at n = 30.
REPORT_CHUNK = 256


@dataclass(frozen=True)
class RigidBodyState:
    """Absolute pose plus twist, tagged body or spatial; holds a copy of
    the twist, which must be finite (ValueError)."""

    pose: Pose
    twist: np.ndarray
    rep: str = "body"

    def __post_init__(self):
        if self.rep not in ("body", "spatial"):
            raise ValueError("RigidBodyState.rep must be 'body' or 'spatial'")
        t = np.array(_finite("RigidBodyState", self.twist, "twist")).reshape(6)
        t.setflags(write=False)
        object.__setattr__(self, "twist", t)

    def spatial_twist(self) -> np.ndarray:
        return _twist_map(self.pose, self.rep, "spatial") @ self.twist


@dataclass
class StepReport:
    """Diagnostics of one sample.  ``constraint_drift`` is the largest
    distance |R^T R - I| of a body rotation from SO(3);
    ``momentum_residual`` is the largest distance |Pi_i - M^s_i V^s_i(qd)|
    of an integrated body momentum from the momentum the recovered qd
    implies, for the momentum form of :func:`chain_simulate` (NaN
    elsewhere)."""

    t: float
    energy: float
    momentum_spatial: np.ndarray
    constraint_drift: float
    momentum_residual: float = np.nan


def mk_step(state: RigidBodyState, twist_field, h: float, t: float = 0.0) -> RigidBodyState:
    """One Munthe-Kaas RK4 step of the pose under a twist field.

    ``twist_field(t, pose)`` returns the twist in the state's
    representation.  The step integrates the algebra-coordinate ODE
    Xdot = dexpinv(-/+X) V with X reset to zero each step (which keeps X
    small and dexpinv well conditioned), then updates the pose by
    C exp(X) (body) or exp(X) C (spatial).  Constant twist fields are
    reproduced exactly for any step size.

    The first RK4 stage is ``state.twist``, read as the field's value at
    (t, state.pose): there X = 0, and exp_se3(0) and dexp_inv(0) are
    exactly the identity.  So a step evaluates the field four times, and its
    last evaluation, the returned state's twist, is the next step's first
    stage at t + h.  A state whose twist is not the field's value there
    steps from its own twist instead.
    """
    pose0 = state.pose
    body = state.rep == "body"

    def xdot(tau, x):
        step = exp_se3(x)
        pose = pose0 @ step if body else step @ pose0
        v = np.asarray(twist_field(tau, pose), dtype=float)
        return dexp_inv(x, "left" if body else "right") @ v

    x = _rk4(xdot, t, np.zeros(6), h, state.twist)
    step = exp_se3(x)
    pose1 = pose0 @ step if body else step @ pose0
    return RigidBodyState(pose1, twist_field(t + h, pose1), state.rep)


@dataclass
class FreeBodyTrajectory:
    times: np.ndarray
    poses: list[Pose]
    twists_spatial: np.ndarray
    reports: list[StepReport]


def free_body_simulate(body: BodyModel, initial: RigidBodyState, T: float,
                       h: float) -> FreeBodyTrajectory:
    """Torque-free rigid body by the momentum formulation.

    The spatial momentum Pi is held constant and the pose C advanced by
    Munthe-Kaas RK4 under the twist V^s = Ad(C) M_b^-1 Ad(C)^T Pi, with
    M_b^-1 formed once from the constant body inertia.  Each report gives
    M^s(C_k) V^s_k = Ad(C_k^-1)^T M_b Ad(C_k^-1) V^s_k, recomputed from the
    integrated pose and twist, so its constancy is a check.  Raises
    ValueError as :func:`chain_simulate` does for T and h.
    """
    m_body = spatial_inertia_body(body).matrix
    m_inv = np.linalg.inv(m_body)
    state = RigidBodyState(initial.pose, initial.spatial_twist(), "spatial")

    def momentum(pose: Pose, v_s) -> np.ndarray:  # M^s(C) V^s
        ad_inv = adjoint(pose.inverse())
        return ad_inv.T @ (m_body @ (ad_inv @ v_s))

    times, = _sample_arrays(T, h)
    steps = len(times) - 1
    pi = momentum(state.pose, state.twist)  # held constant: momentum balance with zero wrench

    def twist_field(_t, pose):
        ad = adjoint(pose)
        return ad @ (m_inv @ (ad.T @ pi))

    poses = [state.pose]
    twists = [state.twist]
    reports = []

    def report(t, pose, v_s):
        p = momentum(pose, v_s)  # recomputed, not the held pi
        return StepReport(t, 0.5 * float(v_s @ p), p, float(_drift(pose.rot)))

    reports.append(report(0.0, state.pose, state.twist))
    for k in range(steps):
        state = mk_step(state, twist_field, h, t=times[k])
        if (k + 1) % REORTHONORMALIZE_EVERY == 0:  # the twist at the projected pose
            pose = state.pose.orthonormalized()
            state = RigidBodyState(pose, twist_field(times[k + 1], pose), "spatial")
        poses.append(state.pose)
        twists.append(state.twist)
        reports.append(report(times[k + 1], state.pose, state.twist))
    return FreeBodyTrajectory(times, poses, np.array(twists), reports)


@dataclass
class ChainTrajectory:
    """Samples of a chain run.  A run that aborted keeps the samples up
    to ``times[abort_step]`` and says why in ``abort_reason``; both are
    None for a run that reached T."""

    times: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    reports: list[StepReport]
    form: str
    abort_reason: str | None = None
    abort_step: int | None = None


def _drift(rot) -> np.ndarray:
    """Distance |R^T R - I| from SO(3), in the Frobenius norm, of a
    rotation or of each of a stack of them."""
    d = np.swapaxes(rot, -1, -2) @ rot - np.eye(3)
    return np.sqrt((d * d).sum(axis=(-2, -1)))


def _sample_arrays(T, h, *widths) -> tuple[np.ndarray, ...]:
    """The sample times 0, h, ..., steps * h of the fixed steps of size h
    covering [0, T], and one NaN-filled (steps + 1, width) array for each
    of ``widths``.  Raises ValueError unless h is finite and positive and
    T finite and non-negative, and, naming T, h and the step count, when
    the samples cannot be stored."""
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"step size h must be finite and positive, got {h!r}")
    if not (np.isfinite(T) and T >= 0.0):
        raise ValueError(f"duration T must be finite and non-negative, got {T!r}")
    steps = float(T) / float(h)  # may overflow to inf, which int() refuses
    try:
        steps = int(round(steps))
        return (np.linspace(0.0, steps * h, steps + 1),
                *(np.full((steps + 1, w), np.nan) for w in widths))
    except (MemoryError, ValueError, OverflowError) as err:
        raise ValueError(f"T={T!r} with h={h!r} takes {steps:.6g} steps, too many "
                         f"to store their samples ({err})") from None


def _rk4(f, t, y, h, k1):
    """One classical RK4 step of y' = f(t, y) from its first stage k1."""
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def chain_simulate(model: ChainModel, q0, qd0, torque=None, T: float = 1.0,
                   h: float = 1e-3, form: str = "state", gravity: bool = True,
                   applied=None) -> ChainTrajectory:
    """Integrate a chain trajectory with fixed-step RK4.

    ``form="state"`` advances (q, qd) with the mass-matrix forward
    dynamics; ``form="momentum"`` advances (q, stacked spatial momenta)
    with the phase-space right-hand side.  ``torque`` is an optional
    callable (t, q, qd) -> generalized forces.

    Sample k is recorded from RK4's first stage f(t_k, y_k), which the
    step from it reuses: qd is the stage's first n entries (recovered from
    the momenta in the momentum form) and qdd the acceleration the stage
    solved, so ``torque`` runs once per stage.  The report reads the
    configuration pass that stage solved on: the momentum-form stage
    hands its pass to the sample (sample 0's is the pass at q0 that gave
    the initial momenta), and the state-form sample reads the pass
    ``fdyn`` kept.  The sample keeps the pass's mass matrix, subtree
    momenta Ic_k js_k, pseudo-inertias and pose stack in buffers of
    ``REPORT_CHUNK`` samples.  When a chunk is full, and at the end or
    abort of the run, stacked products form their reports: the kinetic
    energy from the mass matrix, the potential energy -g . sum h_i from
    the first moments, the total momentum (Ic_k js_k)^T qd and the drift
    from the pose stack, with no pass, sweep or factorization of their
    own.  In both forms ``constraint_drift`` is the largest distance
    |R^T R - I| of a body rotation from SO(3), which is roundoff of the
    rotations FK builds.  The momentum form also reports the residual
    that its integration can really move off zero, ``momentum_residual`` =
    max_i |Pi_i - M^s_i V^s_i(qd)|: how far the integrated body momenta
    sit from the momenta the recovered qd implies (it falls as h^4 with
    RK4).

    A step that fails (a floating-point overflow, division by zero or
    invalid operation, a mass matrix that is not positive definite, a
    non-finite state) aborts the run; the samples before it are kept,
    each with its report, and the step and the reason recorded.  A report
    that faults ends the kept samples before its own sample in the same
    way, and a failed sample 0 is kept with NaN report fields and qdd.
    Raises ValueError unless h is finite and positive, T finite and
    non-negative and ``applied`` (body wrenches, constant over the run)
    None or a finite (n, 6) array, and when the samples of T / h steps
    cannot be stored.
    """
    if form not in ("state", "momentum"):
        raise ValueError("form must be 'state' or 'momentum'")
    n = model.n
    applied = dyn._applied_wrenches(n, applied)
    # NaN where a failed step left no qd or qdd
    times, qs, qds, qdds = _sample_arrays(T, h, n, n, n)
    steps = len(times) - 1
    q0 = np.asarray(q0, dtype=float).reshape(n)
    qd0 = np.asarray(qd0, dtype=float).reshape(n)

    def tau_at(t, q, qd):
        if torque is None:
            return np.zeros(n)
        return np.asarray(torque(t, q, qd), dtype=float).reshape(n)

    def stage(t, y, cfg=None):
        """f(t, y) of the form's ODE, the qdd it solved and, in the
        momentum form, the configuration pass at y's q that it solved on
        (``cfg`` if given); the state form solves by ``fdyn``, which keeps
        its pass, and returns None for it."""
        q = y[:n]
        if form == "state":
            qdd = dyn.fdyn(model, q, y[n:], tau_at(t, q, y[n:]), applied=applied,
                           gravity=gravity)
            return np.concatenate([y[n:], qdd]), qdd, None
        cfg = dyn._Configuration(model, q) if cfg is None else cfg
        rates, qd, qdd = cfg.momentum_rates(y[n:], lambda qd_: tau_at(t, q, qd_),
                                            applied, gravity)
        return np.concatenate([qd, rates.reshape(-1)]), qdd, cfg

    def f(t, y):
        return stage(t, y)[0]

    # what a chunk's reports read: mass matrices, Ic_k js_k, pseudo-inertias and
    # poses, and in the momentum form the integrated momenta, screws and inertias
    rows = min(REPORT_CHUNK, len(times))
    kept = [np.empty((rows, *shape)) for shape in ((n, n), (n, 6), (n, 4, 4), (n, 4, 4))
            + (((6 * n,), (n, 6), (n, 6, 6)) if form == "momentum" else ())]
    reports, done = [], 0  # done: samples whose products are kept

    def sample(k, y, cfg=None):
        """Record sample k of the state y, keep its pass products, return f(t_k, y)."""
        nonlocal done
        q = qs[k] = y[:n]
        if form == "state":  # kept if the stage fails
            qds[k] = y[n:]
        k1, qdds[k], cfg = stage(times[k], y, cfg)
        qds[k] = k1[:n]
        if cfg is None:  # the pass fdyn kept for the stage
            cfg = dyn._configuration(model, q)
        frames = cfg.frames
        for buf, value in zip(kept, (cfg.mass, cfg.icjs, frames.pseudo, frames.poses.mat,
                                     y[n:], frames.screws, frames.inertias)):
            buf[k % rows] = value
        done = k + 1
        if done % rows == 0:
            form_reports()
        return k1

    def chunk_reports(start, stop):
        """The reports of the kept samples start .. stop - 1, all of one chunk."""
        mass, icjs, pseudo, poses, *momentum_form = (buf[start % rows:][:stop - start]
                                                     for buf in kept)
        qd = qds[start:stop]
        energy = 0.5 * ((qd[..., None] * mass).sum(axis=1) * qd).sum(axis=1)
        if gravity:  # -g . sum h_i, h_i the first moments
            energy -= pseudo[..., :3, 3].sum(axis=1) @ model.gravity
        residual = np.full(stop - start, np.nan)
        if momentum_form:
            pis, screws, inertias = momentum_form
            twists = model.tables.path.T @ (screws * qd[..., None])
            momenta = np.einsum("...ijk,...ik->...ij", inertias, twists)
            residual = np.linalg.norm(pis.reshape(-1, n, 6) - momenta, axis=-1).max(axis=1)
        return map(StepReport, times[start:stop].tolist(), energy.tolist(),
                   (qd[..., None] * icjs).sum(axis=1),
                   _drift(poses[..., :3, :3]).max(axis=1).tolist(), residual.tolist())

    def form_reports():
        """Append the reports of the kept samples from len(reports) to
        done - 1; at a floating-point fault, those before the first sample
        whose own report faults, and raise that fault."""
        try:
            reports.extend(chunk_reports(len(reports), done))
        except ArithmeticError:
            for j in range(len(reports), done):
                reports.extend(chunk_reports(j, j + 1))

    k = 0
    qs[0], qds[0] = q0, qd0
    # floating-point faults raise, so the first one is the abort reason
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            cfg = None if form == "state" else dyn._Configuration(model, q0)
            rest = qd0 if cfg is None else cfg.momenta(qd0)
            y = np.concatenate([q0, rest.reshape(-1)])
            k1 = sample(0, y, cfg)
            for k in range(steps):
                y = _rk4(f, times[k], y, h, k1)
                if not np.all(np.isfinite(y)):
                    raise ValueError("non-finite state")
                k1 = sample(k + 1, y)
            form_reports()
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as err:
            try:  # the kept samples after the last full chunk
                form_reports()
            except ArithmeticError as fault:  # a kept sample's report faults first
                err = fault
            if not reports:  # sample 0 failed: its report stays NaN
                reports.append(StepReport(times[0], np.nan, np.full(6, np.nan), np.nan))
            keep = len(reports)  # samples up to the first without a report
            return ChainTrajectory(times[:keep], qs[:keep], qds[:keep], qdds[:keep],
                                   reports, form, abort_reason=str(err) or type(err).__name__,
                                   abort_step=keep - 1)
    return ChainTrajectory(times, qs, qds, qdds, reports, form)
