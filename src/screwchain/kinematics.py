"""POE forward kinematics, twist propagation, Jacobians, and derivatives.

Twists, accelerations and jerks come from one recursive forward sweep per
representation, each level the time derivative of the one below, O(n)
in the number of bodies.

Twist representations (the ``rep`` argument everywhere):

* ``body``    -- measured and resolved in the body frame.
* ``spatial`` -- measured and resolved in the inertial frame.
* ``hybrid``  -- measured at the body origin, resolved in the inertial frame.
* ``mixed``   -- angular part body-fixed, linear part inertial.

Mixed quantities are a derived view of the hybrid ones through the
blockdiag(R^T, I) map, at every differentiation level.  At the jerk level
this is a transformation convention (it is not the plain second time
derivative of the mixed twist, whose angular part picks up an extra
omega x omega-dot term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainModel
from .se3 import (
    Pose,
    ad_matrix,
    adjoint,
    adjoint_rot,
    adjoint_trans,
    exp_se3,
    lie_bracket,
    screw,
)

__all__ = [
    "REPS",
    "JointState",
    "Twist",
    "KinematicsCache",
    "SystemJacobian",
    "fk",
    "fk_body_form",
    "jacobian",
    "twists",
    "accelerations",
    "jerks",
    "jacobian_partial",
    "jacobian_partial_n",
    "hybrid_jacobian_partial2",
    "DerivativeWorkspace",
    "accel_ik",
    "convert_twist",
]

REPS = ("body", "spatial", "hybrid", "mixed")


def _check_rep(rep: str, allowed=REPS):
    if rep not in allowed:
        raise ValueError(f"unknown representation {rep!r} (allowed: {allowed})")


@dataclass(frozen=True)
class JointState:
    """Joint position/rate vectors; qdd and qddd may be omitted."""

    q: np.ndarray
    qd: np.ndarray | None = None
    qdd: np.ndarray | None = None
    qddd: np.ndarray | None = None

    def __post_init__(self):
        n = len(np.atleast_1d(self.q))
        for name in ("q", "qd", "qdd", "qddd"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float).reshape(-1)
            if v.size != n:
                raise ValueError(f"JointState.{name}: expected length {n}, got {v.size}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Twist:
    """A 6-vector twist tagged with its representation and body."""

    s: np.ndarray
    rep: str
    body_index: int

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float).reshape(6)
        s.setflags(write=False)
        object.__setattr__(self, "s", s)
        _check_rep(self.rep)


@dataclass
class KinematicsCache:
    """Per-body kinematic quantities from one forward sweep, with the
    instantaneous joint screws and the screw transformations from each
    parent's twist (None where there is none) that the backward wrench
    sweep reuses."""

    rep: str
    poses: list[Pose]
    rel_poses: list[Pose]
    twists: np.ndarray
    accels: np.ndarray | None = None
    jerks: np.ndarray | None = None
    joint_screws: np.ndarray | None = None
    parent_transforms: list | None = None


class _SweepOps:
    """Screw transformations, inertia congruences and Lie brackets of the
    recursive sweeps.  Each call reports itself to :meth:`count`, which
    does nothing here; the operation counter of
    :func:`screwchain.dynamics.idyn` overrides it, so the counts it
    reports come from the sweep that actually ran."""

    __slots__ = ()

    def count(self, field):
        """Hook for a counter; ``field`` names an ``OpCountReport`` field."""

    def xform(self, mat, s, kind=None):
        self.count("frame_transforms_screw")
        if kind is not None:
            self.count(kind)
        return mat @ s

    def tensor(self, a_inv, m):
        self.count("frame_transforms_tensor")
        return a_inv.T @ m @ a_inv

    def bracket(self, x, y):
        self.count("lie_brackets")
        return lie_bracket(x, y)

    def cobracket(self, x, p):
        self.count("lie_brackets")
        return ad_matrix(x).T @ p


_PLAIN = _SweepOps()


def fk(model: ChainModel, q) -> list[Pose]:
    """Absolute body poses as the ordered product of joint exponentials
    in spatial screw coordinates, times the reference poses."""
    q = np.asarray(q, dtype=float).reshape(model.n)
    exp_prod: list[Pose] = []
    for i in range(model.n):
        step = exp_se3(model.joints[i].screw_spatial * q[i])
        p = model.parent[i]
        prod = step if p < 0 else exp_prod[p] @ step
        exp_prod.append(prod)
    return [exp_prod[i] @ model.bodies[i].ref_pose for i in range(model.n)]


def fk_body_form(model: ChainModel, q) -> tuple[list[Pose], list[Pose]]:
    """Equivalent POE form using body-fixed joint screws.

    Returns (absolute poses, relative poses); the relative pose of body i
    is its configuration in the parent frame, B_i exp(X_i q_i).
    """
    q = np.asarray(q, dtype=float).reshape(model.n)
    poses: list[Pose] = []
    rels: list[Pose] = []
    for i in range(model.n):
        rel = model.rel_ref_pose(i) @ exp_se3(model.joints[i].screw_body * q[i])
        p = model.parent[i]
        poses.append(rel if p < 0 else poses[p] @ rel)
        rels.append(rel)
    return poses, rels


def _instantaneous_screws(model: ChainModel, poses, rep: str,
                          ops: _SweepOps = _PLAIN) -> np.ndarray:
    """Current joint screws per joint: constant X_j (body), Ad_{C_j} X_j
    (spatial), or Ad_{R_j} X_j (hybrid)."""
    out = np.empty((model.n, 6))
    for j in range(model.n):
        x = model.joints[j].screw_body
        if rep == "body":
            out[j] = x
        elif rep == "spatial":
            out[j] = ops.xform(adjoint(poses[j]), x)
        else:  # hybrid
            out[j] = ops.xform(adjoint_rot(poses[j].rot), x, kind="rotations_screw")
    return out


def _body_jacobian_columns(model: ChainModel, poses, i: int) -> dict[int, np.ndarray]:
    """Columns Ad_{C_i^-1 C_j} X_j for every j on the ancestor path of i."""
    ci_inv = poses[i].inverse()
    cols = {}
    for j in model.path(i):
        cols[j] = adjoint(ci_inv @ poses[j]) @ model.joints[j].screw_body
    return cols


@dataclass
class SystemJacobian:
    """Stacked 6n x n Jacobian with its A (6n x 6n) and X (6n x n) factors."""

    rep: str
    J: np.ndarray
    A: np.ndarray
    X: np.ndarray
    n: int

    def column(self, i: int, j: int) -> np.ndarray:
        """6-vector block (i, j): the instantaneous screw of joint j seen
        from body i (zero when j is not an ancestor-or-self of i)."""
        return self.J[6 * i:6 * i + 6, j]


def jacobian(model: ChainModel, q, rep: str = "body") -> SystemJacobian:
    _check_rep(rep)
    n = model.n
    q = np.asarray(q, dtype=float).reshape(n)
    poses = fk(model, q)
    J = np.zeros((6 * n, n))
    A = np.zeros((6 * n, 6 * n))
    X = np.zeros((6 * n, n))

    if rep in ("hybrid", "mixed"):
        screws = _instantaneous_screws(model, poses, "hybrid")
    elif rep == "spatial":
        screws = _instantaneous_screws(model, poses, "spatial")

    for i in range(n):
        for j in model.path(i):
            if rep == "body":
                blk = adjoint(poses[i].inverse() @ poses[j])
                col = blk @ model.joints[j].screw_body
            elif rep == "spatial":
                blk = np.eye(6)
                col = screws[j]
            else:  # hybrid or mixed
                blk = adjoint_trans(poses[j].trans - poses[i].trans)
                col = blk @ screws[j]
            J[6 * i:6 * i + 6, j] = col
            A[6 * i:6 * i + 6, 6 * j:6 * j + 6] = blk

    for j in range(n):
        if rep == "body":
            X[6 * j:6 * j + 6, j] = model.joints[j].screw_body
        elif rep == "spatial":
            X[6 * j:6 * j + 6, j] = screws[j]
        else:
            X[6 * j:6 * j + 6, j] = screws[j]

    if rep == "mixed":
        for i in range(n):
            rt = poses[i].rot.T
            J[6 * i:6 * i + 3, :] = rt @ J[6 * i:6 * i + 3, :]
            A[6 * i:6 * i + 3, :] = rt @ A[6 * i:6 * i + 3, :]
    return SystemJacobian(rep, J, A, X, n)


def _mixed_view(cache: KinematicsCache) -> KinematicsCache:
    """Hybrid-to-mixed map blockdiag(R^T, I) applied at every level."""
    n = len(cache.poses)

    def conv(arr):
        if arr is None:
            return None
        out = arr.copy()
        for i in range(n):
            out[i, :3] = cache.poses[i].rot.T @ arr[i, :3]
        return out

    return KinematicsCache("mixed", cache.poses, cache.rel_poses,
                           conv(cache.twists), conv(cache.accels),
                           conv(cache.jerks))


def _forward_sweep(model: ChainModel, state: JointState, rep: str, level: int,
                   ops: _SweepOps = _PLAIN, frames=None, screws=None) -> KinematicsCache:
    """The one body/spatial/hybrid forward recursion, up to the requested
    level (0 = twists, 1 = accelerations, 2 = jerks).

    Each level is the time derivative of the one below it, so every body
    costs O(1) screw operations per level.  ``frames`` takes the (poses,
    relative poses) of :func:`fk_body_form` and ``screws`` the joint
    screws in ``rep`` when the caller already has them.  Every screw
    transformation and bracket goes through ``ops``.
    """
    n = model.n
    qd, qdd, qddd = (np.zeros(n) if v is None else v
                     for v in (state.qd, state.qdd, state.qddd))
    poses, rels = fk_body_form(model, state.q) if frames is None else frames
    x = _instantaneous_screws(model, poses, rep, ops) if screws is None else screws
    xf = [None] * n
    V = np.zeros((n, 6))
    Vd = np.zeros((n, 6)) if level >= 1 else None
    Vdd = np.zeros((n, 6)) if level >= 2 else None
    zero3 = np.zeros(3)

    for i in range(n):
        p = model.parent[i]
        V[i] = x[i] * qd[i]
        if level >= 1:
            Vd[i] = x[i] * qdd[i]
        if level >= 2:
            Vdd[i] = x[i] * qddd[i]
        if rep == "body":
            # d/dt Ad(rel_i^-1) = -qd_i ad(X_i) Ad(rel_i^-1)
            if p >= 0:
                xf[i] = adjoint(rels[i].inverse())
                V[i] += ops.xform(xf[i], V[p])
                if level >= 1:
                    vd_p = ops.xform(xf[i], Vd[p])
                    xv = ops.bracket(x[i], V[i])
                    Vd[i] += vd_p - qd[i] * xv
                if level >= 2:
                    Vdd[i] += (ops.xform(xf[i], Vdd[p]) - qdd[i] * xv
                               - qd[i] * ops.bracket(x[i], vd_p + Vd[i]))
        elif rep == "spatial":
            # d/dt X^s_i = [V_p, X^s_i]
            if p >= 0:
                V[i] += V[p]
                if level >= 1:
                    Vd[i] += Vd[p] + ops.bracket(V[p], V[i])
                if level >= 2:
                    Vdd[i] += (Vdd[p] + ops.bracket(Vd[p], V[i])
                               + ops.bracket(V[p], Vd[i] + qdd[i] * x[i]))
        else:  # hybrid: d/dt X^h_i = [omega_i, X^h_i], d/dt Ad(r) = ad(r-dot)
            if p >= 0:
                xf[i] = adjoint_trans(poses[p].trans - poses[i].trans)
                V[i] += ops.xform(xf[i], V[p], kind="translations_screw")
            if level >= 1:
                omega_i = screw(V[i][:3], zero3)
                wx = ops.bracket(omega_i, x[i])
                Vd[i] += wx * qd[i]
                if p >= 0:
                    rdot_rel = screw(zero3, V[p][3:] - V[i][3:])
                    Vd[i] += (ops.xform(xf[i], Vd[p], kind="translations_screw")
                              + ops.bracket(rdot_rel, V[p]))
            if level >= 2:
                omegad_i = screw(Vd[i][:3], zero3)
                Vdd[i] += (2.0 * qdd[i] * wx
                           + qd[i] * (ops.bracket(omegad_i, x[i])
                                      + ops.bracket(omega_i, wx)))
                if p >= 0:
                    rddot_rel = screw(zero3, Vd[p][3:] - Vd[i][3:])
                    Vdd[i] += (ops.xform(xf[i], Vdd[p], kind="translations_screw")
                               + 2.0 * ops.bracket(rdot_rel, Vd[p])
                               + ops.bracket(rddot_rel, V[p]))
    return KinematicsCache(rep, poses, rels, V, Vd, Vdd, joint_screws=x,
                           parent_transforms=xf)


def _sweep(model: ChainModel, state: JointState, rep: str, level: int) -> KinematicsCache:
    """:func:`_forward_sweep` in any of the four representations; mixed
    is the view of the hybrid sweep."""
    _check_rep(rep)
    if rep == "mixed":
        return _mixed_view(_forward_sweep(model, state, "hybrid", level))
    return _forward_sweep(model, state, rep, level)


def twists(model: ChainModel, q, qd, rep: str = "body") -> KinematicsCache:
    """Velocity-level forward sweep in the requested representation."""
    return _sweep(model, JointState(np.asarray(q, float), np.asarray(qd, float)), rep, 0)


def accelerations(model: ChainModel, state: JointState, rep: str = "body") -> KinematicsCache:
    """Acceleration-level forward sweep in the requested representation."""
    return _sweep(model, state, rep, 1)


def jerks(model: ChainModel, state: JointState, rep: str = "body") -> KinematicsCache:
    """Jerk-level forward sweep in the requested representation; requires
    state.qd, state.qdd and state.qddd.

    Each jerk is the time derivative of the acceleration recursion, one
    O(1) step per body on top of its parent's jerk.
    """
    if state.qd is None or state.qdd is None or state.qddd is None:
        raise ValueError("jerks: state.qd, state.qdd and state.qddd are required")
    return _sweep(model, state, rep, 2)


# --------------------------------------------------------------------------
# Partial derivatives of the Jacobian
# --------------------------------------------------------------------------

def _hybrid_partial_general(model, poses, x0, i, j, k) -> np.ndarray:
    """Exact d J^h_{i,j} / d q_k for any index triple, by the product rule
    on Ad_{r_ij} X0_j (covers the k < j cases the bracket form leaves out)."""
    if not (model.on_path(j, i) and model.on_path(k, i)):
        return np.zeros(6)
    col_ik = adjoint_trans(poses[k].trans - poses[i].trans) @ x0[k]
    dr_i = col_ik[3:]
    if model.on_path(k, j):
        col_jk = adjoint_trans(poses[k].trans - poses[j].trans) @ x0[k]
        dr_j = col_jk[3:]
        dx0_j = lie_bracket(screw(x0[k][:3], np.zeros(3)), x0[j])
    else:
        dr_j = np.zeros(3)
        dx0_j = np.zeros(6)
    out = lie_bracket(screw(np.zeros(3), dr_j - dr_i), x0[j])
    out += adjoint_trans(poses[j].trans - poses[i].trans) @ dx0_j
    return out


def jacobian_partial(model: ChainModel, q, rep: str, i: int, j: int, k: int) -> np.ndarray:
    """Partial derivative of one Jacobian column w.r.t. one joint variable.

    Body: [J_ij, J_ik] for j < k on the path of i, else zero.
    Spatial: [J_k, J_j] for k < j on the path of j, else zero (the column
    index i is ignored, spatial columns are joint-intrinsic).
    Hybrid: [J_ij, linear part of J_ik] on the bracket form's domain
    j <= k <= i; for k < j the column still varies (its angular part
    rides on earlier joints) and the exact product-rule value is returned.
    """
    _check_rep(rep, ("body", "spatial", "hybrid"))
    n = model.n
    for name, idx in (("i", i), ("j", j), ("k", k)):
        if not 0 <= idx < n:
            raise IndexError(f"jacobian_partial: index {name}={idx} out of range")
    return DerivativeWorkspace(model, q).partial(rep, i, j, k)


def jacobian_partial_n(model: ChainModel, q, rep: str, i: int, j: int,
                       multi_index) -> np.ndarray:
    """Arbitrary-order partial of a Jacobian column by nested brackets.

    The derivative indices are sorted; the body form nests them ascending
    from the inside, the spatial form descending.  Only the body and
    spatial representations have closed forms at order >= 2.
    """
    _check_rep(rep, ("body", "spatial"))
    n = model.n
    beta = sorted(int(b) for b in multi_index)
    if len(beta) < 1:
        raise ValueError("jacobian_partial_n: empty multi-index")
    for idx in (i, j, *beta):
        if not 0 <= idx < n:
            raise IndexError(f"jacobian_partial_n: index {idx} out of range")
    return DerivativeWorkspace(model, q).partial_n(rep, i, j, beta)


def hybrid_jacobian_partial2(model: ChainModel, q, i: int, j: int, k: int,
                             r: int) -> np.ndarray:
    """Second partial of a hybrid Jacobian column w.r.t. q_k then q_r.

    Differentiates the first-order bracket form once more: product rule
    over both bracket arguments, with the exact first partials inside.
    Defined on the first-order domain j <= k <= i (zero otherwise).
    """
    n = model.n
    for idx in (i, j, k, r):
        if not 0 <= idx < n:
            raise IndexError("hybrid_jacobian_partial2: index out of range")
    poses = fk(model, q)
    if not (model.on_path(j, i) and model.on_path(k, i) and model.on_path(r, i)):
        return np.zeros(6)
    if not j <= k:
        return np.zeros(6)
    x0 = _instantaneous_screws(model, poses, "hybrid")
    col_j = adjoint_trans(poses[j].trans - poses[i].trans) @ x0[j]
    col_k = adjoint_trans(poses[k].trans - poses[i].trans) @ x0[k]
    d_j_r = _hybrid_partial_general(model, poses, x0, i, j, r)
    d_k_r = _hybrid_partial_general(model, poses, x0, i, k, r)
    return (lie_bracket(d_j_r, screw(np.zeros(3), col_k[3:]))
            + lie_bracket(col_j, screw(np.zeros(3), d_k_r[3:])))


class DerivativeWorkspace:
    """Lazy, memoizing front end for repeated derivative queries at one q.

    The forward sweep runs once; Jacobian columns per representation are
    built on first use and reused by every subsequent partial-derivative
    call, which keeps batches of queries O(n) after the first.
    """

    def __init__(self, model: ChainModel, q):
        self.model = model
        self.q = np.asarray(q, dtype=float).reshape(model.n)
        self.poses = fk(model, self.q)
        self._screws: dict[str, np.ndarray] = {}
        self._body_cols: dict[int, dict[int, np.ndarray]] = {}

    def instantaneous_screws(self, rep: str) -> np.ndarray:
        if rep not in self._screws:
            self._screws[rep] = _instantaneous_screws(self.model, self.poses, rep)
        return self._screws[rep]

    def body_columns(self, i: int) -> dict[int, np.ndarray]:
        if i not in self._body_cols:
            self._body_cols[i] = _body_jacobian_columns(self.model, self.poses, i)
        return self._body_cols[i]

    def hybrid_column(self, i: int, j: int) -> np.ndarray:
        x0 = self.instantaneous_screws("hybrid")
        return adjoint_trans(self.poses[j].trans - self.poses[i].trans) @ x0[j]

    def partial(self, rep: str, i: int, j: int, k: int) -> np.ndarray:
        _check_rep(rep, ("body", "spatial", "hybrid"))
        model = self.model
        if rep == "spatial":
            if not (k < j and model.on_path(k, j)):
                return np.zeros(6)
            js = self.instantaneous_screws("spatial")
            return lie_bracket(js[k], js[j])
        if not (model.on_path(j, i) and model.on_path(k, i)):
            return np.zeros(6)
        if rep == "body":
            if not j < k:
                return np.zeros(6)
            cols = self.body_columns(i)
            return lie_bracket(cols[j], cols[k])
        x0 = self.instantaneous_screws("hybrid")
        if j <= k:
            return lie_bracket(self.hybrid_column(i, j),
                               screw(np.zeros(3), self.hybrid_column(i, k)[3:]))
        return _hybrid_partial_general(model, self.poses, x0, i, j, k)

    def partial_n(self, rep: str, i: int, j: int, multi_index) -> np.ndarray:
        _check_rep(rep, ("body", "spatial"))
        model = self.model
        beta = sorted(int(b) for b in multi_index)
        if rep == "body":
            if (any(not model.on_path(b, i) for b in beta)
                    or not model.on_path(j, i) or beta[0] <= j):
                return np.zeros(6)
            cols = self.body_columns(i)
            acc = cols[j]
            for b in beta:
                acc = lie_bracket(acc, cols[b])
            return acc
        if any(not (b < j and model.on_path(b, j)) for b in beta):
            return np.zeros(6)
        js = self.instantaneous_screws("spatial")
        acc = js[j]
        for b in reversed(beta):
            acc = lie_bracket(js[b], acc)
        return acc


# --------------------------------------------------------------------------
# Acceleration-level inverse kinematics and representation conversion
# --------------------------------------------------------------------------

def accel_ik(model: ChainModel, q, body_twists, body_accels) -> np.ndarray:
    """Joint accelerations from consistent body-fixed twists/accelerations.

    Per joint: qdd_i = X_i . (Vdot_i - Ad Vdot_parent + qd_i [X_i, V_i])
    / |X_i|^2, with qd_i recovered by the same projection at velocity level.
    """
    n = model.n
    V = np.asarray(body_twists, dtype=float).reshape(n, 6)
    Vd = np.asarray(body_accels, dtype=float).reshape(n, 6)
    _, rels = fk_body_form(model, q)
    qdd = np.zeros(n)
    for i in range(n):
        p = model.parent[i]
        x = model.joints[i].screw_body
        norm2 = float(x @ x)
        ad_rel = adjoint(rels[i].inverse())
        vp = V[p] if p >= 0 else np.zeros(6)
        vdp = Vd[p] if p >= 0 else np.zeros(6)
        qd_i = float(x @ (V[i] - ad_rel @ vp)) / norm2
        qdd[i] = float(x @ (Vd[i] - ad_rel @ vdp
                            + qd_i * lie_bracket(x, V[i]))) / norm2
    return qdd


def convert_twist(t: Twist, target_rep: str, poses) -> Twist:
    """Exact linear map between twist representations of one body."""
    _check_rep(target_rep)
    pose = poses[t.body_index]
    r, rvec = pose.rot, pose.trans
    s = t.s
    if t.rep == target_rep:
        return Twist(s.copy(), target_rep, t.body_index)
    # normalize to body first
    if t.rep == "body":
        body = s
    elif t.rep == "hybrid":
        body = adjoint_rot(r.T) @ s
    elif t.rep == "spatial":
        body = np.linalg.solve(adjoint(pose), s)
    else:  # mixed
        body = screw(s[:3], r.T @ s[3:])
    if target_rep == "body":
        out = body
    elif target_rep == "hybrid":
        out = adjoint_rot(r) @ body
    elif target_rep == "spatial":
        out = adjoint(pose) @ body
    else:  # mixed
        out = screw(body[:3], r @ body[3:])
    return Twist(out, target_rep, t.body_index)
