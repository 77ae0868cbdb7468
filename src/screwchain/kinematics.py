"""POE forward kinematics, twist propagation, Jacobians, and derivatives.

Forward kinematics evaluates each joint exponential exp(q X) in closed
form from tables the model built at load: for the revolute and helical
joints (unit angular part W = [w]x) the rotation is
I + sin q W + (1 - cos q) W^2 and the translation
q v + (1 - cos q) W v + (q - sin q) W^2 v; a prismatic joint has W = 0.
All joints are evaluated at once and composed with the reference poses in
one stacked product.  The poses it builds are rotations by construction
and are not validated again as ``Pose(...)`` would; a non-finite q, which
would make them meaningless, is rejected with a ValueError instead.

Twists, accelerations and jerks come from one recursive forward sweep per
representation, each level the time derivative of the one below, O(n)
in the number of bodies.  The sweep builds no frame data of its own: it
reads the frame table of its representation (:func:`_frame_table`), in
which the joint screws, inertias, parent transforms and gravity loads of
all bodies are one stacked product each, and which the Jacobian,
:func:`screwchain.dynamics.idyn`, ``fdyn`` and ``momentum_rhs`` read too.

Twist representations (the ``rep`` argument everywhere).  Each is the
body twist of one body mapped by a 6x6 matrix B fixed by the body's pose
C = (R, r); :func:`_rep_map` builds B and its closed-form inverse:

===========  ==============================================  ==================
``rep``      twist measured / resolved                       B (from body)
===========  ==============================================  ==================
``body``     at the body origin, in the body frame           I
``spatial``  at the inertial origin, in the inertial frame   Ad(C)
``hybrid``   at the body origin, in the inertial frame       blockdiag(R, R)
``mixed``    angular part body-fixed, linear part inertial   blockdiag(I, R)
===========  ==============================================  ==================

Every change of coordinates outside the recursive sweeps derives from
these maps: a twist goes from representation a to b by B_b B_a^-1, a
wrench by B_b^-T B_a^T, an inertia by B^-T M B^-1, a joint screw is
B_j X_j, and block row i of the system Jacobian is the spatial joint
screws mapped into body i's coordinates by B_i Ad(C_i)^-1.

Mixed quantities are a derived view of the hybrid ones through the
hybrid-to-mixed map blockdiag(R^T, I), at every differentiation level.
At the jerk level this is a transformation convention (it is not the
plain second time derivative of the mixed twist, whose angular part
picks up an extra omega x omega-dot term).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ChainModel
from .se3 import Pose, ad_matrix, lie_bracket, screw

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
    parent's twist (None where there is none) of the frame table the
    sweep read (:func:`_frame_table`)."""

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
    frame tables and the recursive sweeps.  Each call reports itself to
    :meth:`count`, which does nothing here; the operation counter of
    :func:`screwchain.dynamics.idyn` overrides it, so the counts it
    reports come from the sweep that actually ran.  The stacked
    transforms count one transform per body."""

    __slots__ = ()

    def count(self, field, times=1):
        """Hook for a counter; ``field`` names an ``OpCountReport`` field."""

    def xform(self, mat, s, kind=None):
        self.count("frame_transforms_screw")
        if kind is not None:
            self.count(kind)
        return mat @ s

    def xforms(self, mats, s, kind=None):
        """mats[i] @ s[i] for every body i."""
        self.count("frame_transforms_screw", len(s))
        if kind is not None:
            self.count(kind, len(s))
        return np.einsum("nij,nj->ni", mats, s)

    def tensors(self, a_inv, m):
        """a_inv[i]^T m[i] a_inv[i] for every body i."""
        self.count("frame_transforms_tensor", len(m))
        return np.swapaxes(a_inv, 1, 2) @ m @ a_inv

    def bracket(self, x, y):
        self.count("lie_brackets")
        return lie_bracket(x, y)

    def cobracket(self, x, p):
        self.count("lie_brackets")
        return ad_matrix(x).T @ p

    def cobrackets(self, x, p):
        """ad(x[i])^T p[i] = -(w x a + v x b, w x b) for every body i, with
        x[i] = (w, v) and p[i] = (a, b); the cross products are written
        out, since np.cross pays for an axis normalization on every call."""
        self.count("lie_brackets", len(x))
        w0, w1, w2, v0, v1, v2 = x.T
        a0, a1, a2, b0, b1, b2 = p.T
        return -np.array([w1 * a2 - w2 * a1 + v1 * b2 - v2 * b1,
                          w2 * a0 - w0 * a2 + v2 * b0 - v0 * b2,
                          w0 * a1 - w1 * a0 + v0 * b1 - v1 * b0,
                          w1 * b2 - w2 * b1,
                          w2 * b0 - w0 * b2,
                          w0 * b1 - w1 * b0]).T


_PLAIN = _SweepOps()


def fk(model: ChainModel, q) -> list[Pose]:
    """Absolute body poses, the first half of :func:`fk_body_form`."""
    return fk_body_form(model, q)[0]


class _PoseStack(NamedTuple):
    """The poses of all bodies as read-only stacked arrays: ``rot``
    (n, 3, 3) and ``trans`` (n, 3)."""

    rot: np.ndarray
    trans: np.ndarray

    def poses(self) -> list[Pose]:
        return [Pose._trusted(r, t) for r, t in zip(self.rot, self.trans)]


def _fk_stacks(model: ChainModel, q) -> tuple[_PoseStack, _PoseStack]:
    """(absolute, relative) body poses of :func:`fk_body_form` as stacks."""
    q = np.asarray(q, dtype=float).reshape(model.n)
    bad = np.flatnonzero(~np.isfinite(q))
    if bad.size:
        raise ValueError(f"fk_body_form: q must be finite, "
                         f"got q[{bad[0]}] = {q[bad[0]]!r}")
    tab = model.tables
    a = tab.rate * q
    s, c = np.sin(a), 1.0 - np.cos(a)
    rot = np.eye(3) + s[:, None, None] * tab.w + c[:, None, None] * tab.w2
    trans = a[:, None] * tab.v + c[:, None] * tab.wv + (a - s)[:, None] * tab.w2v
    rel_rot = tab.ref_rot @ rot
    rel_trans = np.einsum("nij,nj->ni", tab.ref_rot, trans) + tab.ref_trans
    abs_rot, abs_trans = rel_rot.copy(), rel_trans.copy()
    for i, p in enumerate(model.parent):
        if p >= 0:
            abs_trans[i] = abs_rot[p] @ rel_trans[i] + abs_trans[p]
            abs_rot[i] = abs_rot[p] @ rel_rot[i]
    for arr in (abs_rot, abs_trans, rel_rot, rel_trans):
        arr.setflags(write=False)
    return _PoseStack(abs_rot, abs_trans), _PoseStack(rel_rot, rel_trans)


def fk_body_form(model: ChainModel, q) -> tuple[list[Pose], list[Pose]]:
    """Forward kinematics as the product of exponentials in body-fixed
    joint screws, each body's pose its parent's times its relative pose.

    Returns (absolute poses, relative poses); the relative pose of body i
    is its configuration in the parent frame, B_i exp(X_i q_i).  Each
    exponential is the closed form in sin and cos of the tables the model
    built at load (:class:`screwchain.model.ChainTables`), exact for the
    revolute, prismatic and helical joints; all of them are composed with
    the reference poses in one stacked product before the walk down the
    tree.  The returned poses are not validated again, since they are
    rotations by construction; instead q itself must be finite
    (ValueError otherwise).
    """
    absolute, relative = _fk_stacks(model, q)
    return absolute.poses(), relative.poses()


_EYE6 = np.eye(6)
_EYE6.setflags(write=False)


def _blocks(a, c, d) -> np.ndarray:
    """The 6x6 matrix [[a, 0], [c, d]] of 3x3 blocks; c=None is zero.
    Leading axes of d carry through (a stack of matrices)."""
    m = np.zeros(d.shape[:-2] + (6, 6))
    m[..., :3, :3] = a
    if c is not None:
        m[..., 3:, :3] = c
    m[..., 3:, 3:] = d
    return m


def _hat(t) -> np.ndarray:
    """Skew matrices [t]x of the 3-vectors along the last axis of t."""
    h = np.zeros(t.shape[:-1] + (3, 3))
    h[..., 2, 1], h[..., 0, 2], h[..., 1, 0] = t[..., 0], t[..., 1], t[..., 2]
    return h - np.swapaxes(h, -1, -2)


def _rep_map(pose, rep: str) -> tuple[np.ndarray, np.ndarray]:
    """(B, B^-1): the map from body coordinates into ``rep`` coordinates
    of a screw attached to a body at ``pose``, and its closed-form inverse
    (the table in the module docstring).  ``pose`` may also be a
    :class:`_PoseStack`, which gives one (n, 6, 6) stack of each."""
    r, rt = pose.rot, np.swapaxes(pose.rot, -1, -2)
    if rep == "body":
        return _EYE6, _EYE6
    if rep == "spatial":
        rh = _hat(pose.trans)
        return _blocks(r, rh @ r, r), _blocks(rt, -rt @ rh, rt)
    if rep == "hybrid":
        return _blocks(r, None, r), _blocks(rt, None, rt)
    _check_rep(rep)
    return _blocks(np.eye(3), None, r), _blocks(np.eye(3), None, rt)


def _twist_map(pose, from_rep: str, to_rep: str) -> np.ndarray:
    """B_to B_from^-1, which takes a twist of a body at ``pose`` from
    ``from_rep`` into ``to_rep`` coordinates (exactly I when they agree;
    a stack of them for a :class:`_PoseStack`).  Its transpose takes a
    wrench from ``to_rep`` into ``from_rep``."""
    if from_rep == to_rep:
        return _EYE6
    return _rep_map(pose, to_rep)[0] @ _rep_map(pose, from_rep)[1]


class _Frames(NamedTuple):
    """The frame table of :func:`_frame_table`: read-only stacks over the
    bodies in ``rep`` coordinates, and the pose stacks they came from."""

    rep: str
    poses: _PoseStack
    rels: _PoseStack | None
    screws: np.ndarray
    inertias: np.ndarray
    parent: np.ndarray | None
    gravity: np.ndarray


def _frame_table(model: ChainModel, absolute: _PoseStack, relative: _PoseStack | None,
                 rep: str, ops: _SweepOps = _PLAIN) -> _Frames:
    """Every per-body frame quantity a ``rep`` sweep (body, spatial or
    hybrid) reads, at the pose stacks of :func:`_fk_stacks`, one stacked
    product each through the maps B of :func:`_rep_map`:

    - the joint screws B X and the inertias B^-T M B^-1 (X and M
      themselves in body form), transformed through ``ops``;
    - the transforms of each parent's twist into the body's coordinates:
      Ad(rel_i)^-1 in body form, read from ``relative`` (left out when it
      is None), the translations [[I, 0], [[r_p - r_i]x, I]] in hybrid
      form, and none (None) in spatial form; a root's entry is unused;
    - the gravity loads, each inertia times the acceleration of the
      gravity field B Ad(C)^-1 (0, g): M (0, R^T g) in body form and
      I (0, g) in spatial and hybrid form.
    """
    tab = model.tables
    rot, trans = absolute
    parent = None
    if rep == "body":
        screws, inertias = tab.screw, tab.inertia
        if relative is not None:
            parent = _rep_map(relative, "spatial")[1]
        accel = model.gravity @ rot  # R_i^T g
    else:
        b, b_inv = _rep_map(absolute, rep)
        kind = "rotations_screw" if rep == "hybrid" else None
        screws = ops.xforms(b, tab.screw, kind)
        inertias = ops.tensors(b_inv, tab.inertia)
        accel = model.gravity
        if rep == "hybrid":
            par = np.asarray(model.parent)
            parent = np.tile(_EYE6, (model.n, 1, 1))
            parent[:, 3:, :3] = _hat(np.where(par[:, None] >= 0, trans[par], 0.0) - trans)
    gravity = (inertias[..., 3:] @ accel[..., None])[..., 0]
    for arr in (screws, inertias, parent, gravity):
        if arr is not None:
            arr.setflags(write=False)
    return _Frames(rep, absolute, relative, screws, inertias, parent, gravity)


@dataclass
class SystemJacobian:
    """Stacked 6n x n Jacobian.  Block (i, j) is T_i js_j for every joint
    j on body i's path (zero elsewhere), where js_j is the spatial screw
    of joint j and T_i maps spatial coordinates into body i's ``rep``
    coordinates; block (j, j) is joint j's screw in ``rep``."""

    rep: str
    J: np.ndarray
    n: int

    def column(self, i: int, j: int) -> np.ndarray:
        """6-vector block (i, j): the instantaneous screw of joint j seen
        from body i (zero when j is not an ancestor-or-self of i)."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"SystemJacobian.column: index ({i}, {j}) out of range")
        return self.J[6 * i:6 * i + 6, j]


def _jacobian(model: ChainModel, absolute: _PoseStack, rep: str) -> SystemJacobian:
    """System Jacobian at the absolute pose stack: the maps
    T_i = B_i Ad(C_i)^-1 applied to the spatial joint screws of the
    spatial frame table, masked by ``tables.on_path``."""
    n = model.n
    js = _frame_table(model, absolute, None, "spatial").screws
    blocks = _twist_map(absolute, "spatial", rep) @ js.T  # blocks[i, :, j] = T_i js_j
    J = np.where(model.tables.on_path.T[:, None, :], blocks, 0.0)
    return SystemJacobian(rep, J.reshape(6 * n, n), n)


def jacobian(model: ChainModel, q, rep: str = "body") -> SystemJacobian:
    _check_rep(rep)
    return _jacobian(model, _fk_stacks(model, q)[0], rep)


def _mixed_view(cache: KinematicsCache, poses: _PoseStack) -> KinematicsCache:
    """Hybrid-to-mixed map B_mixed B_hybrid^-1 at the pose stack applied
    at every level."""
    maps = _twist_map(poses, "hybrid", "mixed")

    def conv(arr):
        return None if arr is None else np.einsum("ijk,ik->ij", maps, arr)

    return KinematicsCache("mixed", cache.poses, cache.rel_poses,
                           conv(cache.twists), conv(cache.accels),
                           conv(cache.jerks))


def _forward_sweep(model: ChainModel, frames: _Frames, state: JointState, level: int,
                   ops: _SweepOps = _PLAIN) -> KinematicsCache:
    """The one body/spatial/hybrid forward recursion in the representation
    of the frame table ``frames`` (:func:`_frame_table`), up to the
    requested level (0 = twists, 1 = accelerations, 2 = jerks).

    Each level is the time derivative of the one below it, so every body
    costs O(1) screw operations per level.  The joint screws and parent
    transforms come from the table; the loop only applies them, and
    every screw transformation and bracket goes through ``ops``.
    """
    n = model.n
    rep = frames.rep
    qd, qdd, qddd = (np.zeros(n) if v is None else v
                     for v in (state.qd, state.qdd, state.qddd))
    x, xf = frames.screws, frames.parent
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
            # xf[i] = Ad(rel_i^-1), d/dt Ad(rel_i^-1) = -qd_i ad(X_i) Ad(rel_i^-1)
            if p >= 0:
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
    xfs = [None if p < 0 or xf is None else xf[i] for i, p in enumerate(model.parent)]
    return KinematicsCache(rep, frames.poses.poses(), frames.rels.poses(), V, Vd, Vdd,
                           joint_screws=x, parent_transforms=xfs)


def _kinematics(model: ChainModel, state: JointState, rep: str, level: int,
                ops: _SweepOps = _PLAIN) -> tuple[_Frames, KinematicsCache]:
    """The frame table of ``rep`` at state.q, built through ``ops``, and
    :func:`_forward_sweep` over it."""
    frames = _frame_table(model, *_fk_stacks(model, state.q), rep, ops)
    return frames, _forward_sweep(model, frames, state, level, ops)


def _sweep(model: ChainModel, state: JointState, rep: str, level: int) -> KinematicsCache:
    """:func:`_forward_sweep` in any of the four representations; mixed
    is the view of the hybrid sweep."""
    _check_rep(rep)
    if rep == "mixed":
        frames, cache = _kinematics(model, state, "hybrid", level)
        return _mixed_view(cache, frames.poses)
    return _kinematics(model, state, rep, level)[1]


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

def _hybrid_partial_general(ws: DerivativeWorkspace, i, j, k) -> np.ndarray:
    """Exact d J^h_{i,j} / d q_k for any index triple, by the product rule
    on J^h_ij = Ad(-r_i) js_j: the translation gives [(0, -v_ik), J^h_ij]
    (the bracket form [J^h_ij, (0, v_ik)]) and the spatial screw, which
    moves only with the joints on its own path, adds [J^h_ik, J^h_ij]
    when k is on the path of j."""
    model = ws.model
    if not (model.on_path(j, i) and model.on_path(k, i)):
        return np.zeros(6)
    jh = ws.jacobian("hybrid")
    col_ij, col_ik = jh.column(i, j), jh.column(i, k)
    out = lie_bracket(screw(np.zeros(3), -col_ik[3:]), col_ij)
    if model.on_path(k, j):
        out += lie_bracket(col_ik, col_ij)
    return out


def jacobian_partial(model: ChainModel, q, rep: str, i: int, j: int, k: int) -> np.ndarray:
    """Partial derivative of one Jacobian column w.r.t. one joint variable.

    Body: [J_ij, J_ik] for j < k on the path of i, else zero.
    Spatial: [J_k, J_j] for k < j on the path of j, else zero (the column
    index i is ignored, spatial columns are joint-intrinsic).
    Hybrid: [J_ij, linear part of J_ik] on the bracket form's domain
    j <= k <= i; for k < j the column still varies (its angular part
    rides on earlier joints), and the product rule adds [J_ik, J_ij].
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
    if not (j <= k and model.on_path(j, i) and model.on_path(k, i) and model.on_path(r, i)):
        return np.zeros(6)
    ws = DerivativeWorkspace(model, q)
    jh = ws.jacobian("hybrid")
    d_j_r = _hybrid_partial_general(ws, i, j, r)
    d_k_r = _hybrid_partial_general(ws, i, k, r)
    return (lie_bracket(d_j_r, screw(np.zeros(3), jh.column(i, k)[3:]))
            + lie_bracket(jh.column(i, j), screw(np.zeros(3), d_k_r[3:])))


class DerivativeWorkspace:
    """Lazy, memoizing front end for repeated derivative queries at one q.

    Forward kinematics runs once (``poses`` is its absolute pose stack);
    the system Jacobian of each representation is built on first use and
    its columns serve every subsequent partial-derivative call.
    """

    def __init__(self, model: ChainModel, q):
        self.model = model
        self.q = np.asarray(q, dtype=float).reshape(model.n)
        self.poses = _fk_stacks(model, self.q)[0]
        self._jacobians: dict[str, SystemJacobian] = {}

    def jacobian(self, rep: str) -> SystemJacobian:
        if rep not in self._jacobians:
            self._jacobians[rep] = _jacobian(self.model, self.poses, rep)
        return self._jacobians[rep]

    def partial(self, rep: str, i: int, j: int, k: int) -> np.ndarray:
        _check_rep(rep, ("body", "spatial", "hybrid"))
        model = self.model
        if rep == "spatial":
            if not (k < j and model.on_path(k, j)):
                return np.zeros(6)
            js = self.jacobian("spatial")
            return lie_bracket(js.column(k, k), js.column(j, j))
        if rep == "hybrid":
            return _hybrid_partial_general(self, i, j, k)
        if not (j < k and model.on_path(j, i) and model.on_path(k, i)):
            return np.zeros(6)
        jb = self.jacobian("body")
        return lie_bracket(jb.column(i, j), jb.column(i, k))

    def partial_n(self, rep: str, i: int, j: int, multi_index) -> np.ndarray:
        _check_rep(rep, ("body", "spatial"))
        model = self.model
        beta = sorted(int(b) for b in multi_index)
        if rep == "body":
            if (any(not model.on_path(b, i) for b in beta)
                    or not model.on_path(j, i) or beta[0] <= j):
                return np.zeros(6)
            jb = self.jacobian("body")
            acc = jb.column(i, j)
            for b in beta:
                acc = lie_bracket(acc, jb.column(i, b))
            return acc
        if any(not (b < j and model.on_path(b, j)) for b in beta):
            return np.zeros(6)
        js = self.jacobian("spatial")
        acc = js.column(j, j)
        for b in reversed(beta):
            acc = lie_bracket(js.column(b, b), acc)
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
    frames = _frame_table(model, *_fk_stacks(model, q), "body")
    qdd = np.zeros(n)
    for i in range(n):
        p = model.parent[i]
        x = frames.screws[i]
        norm2 = float(x @ x)
        ad_rel = frames.parent[i]
        vp = V[p] if p >= 0 else np.zeros(6)
        vdp = Vd[p] if p >= 0 else np.zeros(6)
        qd_i = float(x @ (V[i] - ad_rel @ vp)) / norm2
        qdd[i] = float(x @ (Vd[i] - ad_rel @ vdp
                            + qd_i * lie_bracket(x, V[i]))) / norm2
    return qdd


def convert_twist(t: Twist, target_rep: str, poses) -> Twist:
    """Exact linear map B_to B_from^-1 between twist representations of
    one body; raises IndexError when ``t.body_index`` names no pose."""
    _check_rep(target_rep)
    if not 0 <= t.body_index < len(poses):
        raise IndexError(f"convert_twist: body_index {t.body_index} out of range")
    m = _twist_map(poses[t.body_index], t.rep, target_rep)
    return Twist(m @ t.s, target_rep, t.body_index)
