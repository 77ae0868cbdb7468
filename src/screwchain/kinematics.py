"""POE forward kinematics, twist propagation, Jacobians and their partial
derivatives.

Forward kinematics is a walk down the tree of homogeneous 4x4 matrices:
every relative pose B exp(q X) is one stacked product of sin and cos
with a table the model built at load (:class:`screwchain.model.ChainTables`),
and each body's absolute pose is its parent's times its relative pose,
one matrix product per link.  The poses are rotations by construction
and are not validated again as ``Pose(...)`` would; a non-finite q, which
would make them meaningless, is rejected with a ValueError instead.

Spatial motion is path sums at every level (:func:`_spatial_motion`):
as d/dt js_j = [V_j, js_j], the twists, accelerations and jerks of all
bodies are sums over each body's path of the spatial joint screws js_j
and their stacked brackets, and given the inertias the Newton-Euler
balances come with them.  :func:`twists`, :func:`accelerations` and
:func:`jerks` are one function (:func:`_motion`): the path sums over the
screws alone, then fixed maps into each representation at every level.
Inverse dynamics (:func:`screwchain.dynamics.idyn`) reads the frame table
of its representation (:func:`_frame_table`), in which the joint screws,
inertias, parent transforms and gravity loads of all bodies are one
stacked product each, and which ``fdyn`` and ``momentum_rhs`` read too;
its motion (:func:`_kinematics`) is the path sums in spatial form and
the counted O(n) forward recursion (:func:`_forward_sweep`) in body and
hybrid form.  The table, the recursion and the path sums count the
operations of ``idyn`` into its report ``ops``, once per stacked call.
The spatial and hybrid tables work on the homogeneous 4x4 pose stack of
FK: each inertia is read out of one congruence W J W^T of the body's
4x4 pseudo-inertia J (W the pose, or its rotation alone in hybrid form),
and each screw is (R w, t x R w + R v) (spatial) or (R w, R v) (hybrid).

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

Mixed motion is the hybrid motion under the hybrid-to-mixed map
blockdiag(R^T, I), at every differentiation level.  At the jerk level
this is a transformation convention (it is not the plain second time
derivative of the mixed twist, whose angular part picks up an extra
omega x omega-dot term).

Every partial of a Jacobian column is a Lie bracket of columns, so one
table of the brackets [J_la, J_lb] of each body's columns
(:func:`_bracket_table`) gives all first partials at once
(:func:`jacobian_partials`), and one entry brackets two columns;
:mod:`screwchain.dynamics` contracts the same table.

The kernels (skew matrices, the adjoint pair, brackets and cross
products, one-screw and stacked) are those of :mod:`screwchain.se3`;
this module applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import ChainModel
from .se3 import (Pose, _CROSS, _SE3_BRACKET, _adjoint_pair, _blocks, _brackets, _dot,
                  _pair_table, _product, hat3, lie_bracket, screw)

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
    "jacobian_partials",
    "accel_ik",
    "convert_twist",
]

REPS = ("body", "spatial", "hybrid", "mixed")


def _check_rep(rep: str, allowed=REPS):
    if rep not in allowed:
        raise ValueError(f"unknown representation {rep!r} (allowed: {allowed})")


def _rate(fn: str, name: str, v, n: int, finite: bool = True) -> np.ndarray:
    """The joint vector ``v`` as a read-only float vector: n numbers in
    any shape, all finite unless ``finite`` is False, else a ValueError
    from ``fn`` that names ``name`` and its first NaN or infinity."""
    v = np.array(v, dtype=float).reshape(-1)
    if v.size != n:
        raise ValueError(f"{fn}: {name} must have {n} entries, got {v.size}")
    if finite and not np.isfinite(v).all():
        bad = np.flatnonzero(~np.isfinite(v))[0]
        raise ValueError(f"{fn}: {name} must be finite, got {name}[{bad}] = {float(v[bad])}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class JointState:
    """Joint position/rate vectors, each n numbers in any shape, n the
    size of q; qdd and qddd may be omitted.  Raises ValueError when a rate
    has another size or is not finite (:func:`_rate`; q is checked where
    the poses are built, :func:`_fk_stacks`)."""

    q: np.ndarray
    qd: np.ndarray | None = None
    qdd: np.ndarray | None = None
    qddd: np.ndarray | None = None

    def __post_init__(self):
        n = np.size(self.q)
        for name in ("q", "qd", "qdd", "qddd"):
            if (v := getattr(self, name)) is not None:
                object.__setattr__(self, name, _rate("JointState", name, v, n, name != "q"))


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
    """The twists, accelerations and jerks of all bodies in ``rep`` that
    :func:`_motion` formed, at its FK pose stacks; ``poses`` and
    ``rel_poses`` are built from the stacks on first read."""

    rep: str
    pose_stack: _PoseStack
    rel_stack: _PoseStack
    twists: np.ndarray
    accels: np.ndarray | None = None
    jerks: np.ndarray | None = None

    poses = cached_property(lambda self: self.pose_stack.poses())
    rel_poses = cached_property(lambda self: self.rel_stack.poses())


def fk(model: ChainModel, q) -> list[Pose]:
    """Absolute body poses, the first half of :func:`fk_body_form`."""
    return _fk_stacks(model, _one_sample(model, q), relative=False)[0].poses()


def _one_sample(model: ChainModel, q) -> np.ndarray:
    """The q or qd of a one-sample call, n numbers in any shape, as a float
    vector (ValueError for another count); :func:`_fk_stacks` would read
    the leading axes of a (1, n) q as samples."""
    return np.asarray(q, dtype=float).reshape(model.n)


class _PoseStack(NamedTuple):
    """The poses of all bodies as one (..., n, 4, 4) stack ``mat`` of
    homogeneous matrices, which nothing writes once built; leading axes
    are samples.  ``rot`` (..., n, 3, 3) and ``trans`` (..., n, 3) are
    views, and :meth:`poses` reads read-only ones of a one-sample stack."""

    mat: np.ndarray

    @property
    def rot(self) -> np.ndarray:
        return self.mat[..., :3, :3]

    @property
    def trans(self) -> np.ndarray:
        return self.mat[..., :3, 3]

    def poses(self) -> list[Pose]:
        return [Pose._trusted(r, t) for r, t in zip(self.rot, self.trans)]


def _fk_stacks(model: ChainModel, q, relative=True) -> tuple[_PoseStack, _PoseStack | None]:
    """(absolute, relative) poses of :func:`fk_body_form` as (..., n, 4, 4)
    stacks, one per row of a float (..., n) q (a :func:`_one_sample` vector
    is one sample), bit for bit those of its own call; with ``relative``
    False the walk runs in place and leaves it out (None)."""
    if not np.isfinite(q).all():
        bad = np.flatnonzero(~np.isfinite(q))[0]
        raise ValueError(f"fk_body_form: q must be finite, "
                         f"got q[{bad % model.n}] = {float(q.flat[bad])}")
    tab = model.tables
    a = tab.rate * q
    coef = np.ones(a.shape + (1, 4))
    coef[..., 0, 1], coef[..., 0, 2], coef[..., 0, 3] = np.sin(a), 1.0 - np.cos(a), a
    rel = (coef @ tab.exp).reshape(a.shape + (4, 4))
    walk = rel.copy() if relative else rel
    down = walk.swapaxes(0, -3)  # body axis first, so a link is one integer index
    for i, p in model.links:
        down[i] = _dot(down[p], down[i])
    return _PoseStack(walk), _PoseStack(rel) if relative else None


def fk_body_form(model: ChainModel, q) -> tuple[list[Pose], list[Pose]]:
    """Forward kinematics as the product of exponentials in body-fixed
    joint screws, each body's pose its parent's times its relative pose.

    Returns (absolute poses, relative poses); the relative pose of body i
    is its configuration in the parent frame, B_i exp(X_i q_i), in closed
    form for the revolute, prismatic and helical joints, all of them one
    stacked product with a table of the model; the walk down the tree
    then makes one homogeneous 4x4 product per link.  The poses are
    trusted (:class:`screwchain.se3.Pose`); q must be finite (ValueError).
    """
    absolute, relative = _fk_stacks(model, _one_sample(model, q))
    return absolute.poses(), relative.poses()


_EYE6 = np.eye(6)
_EYE6.setflags(write=False)


def _rep_map(pose, rep: str) -> tuple[np.ndarray, np.ndarray]:
    """(B, B^-1): the map from body coordinates into ``rep`` coordinates
    of a screw attached to a body at ``pose``, and its closed-form inverse
    (the table in the module docstring).  ``pose`` may also be a
    :class:`_PoseStack`, which gives one (n, 6, 6) stack of each."""
    r, rt = pose.rot, np.swapaxes(pose.rot, -1, -2)
    if rep == "body":
        return _EYE6, _EYE6
    if rep == "spatial":
        return _adjoint_pair(r, pose.trans)
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
    """The frame table of :func:`_frame_table`: stacks over the bodies in
    ``rep`` coordinates, which nothing writes after they are built, and
    the absolute pose stack they came from; ``pseudo`` holds the carried
    pseudo-inertias W J W^T (None in body form).  A spatial table at a
    pose stack with leading sample axes has them too, each sample's rows
    those of its own table; the sweeps and the body and hybrid tables
    read one sample."""

    rep: str
    poses: _PoseStack
    screws: np.ndarray
    inertias: np.ndarray
    parent: np.ndarray | None
    gravity: np.ndarray
    pseudo: np.ndarray | None


def _frame_table(model: ChainModel, absolute: _PoseStack, relative: _PoseStack | None,
                 rep: str, ops=None) -> _Frames:
    """Every per-body frame quantity a ``rep`` sweep (body, spatial or
    hybrid) reads, at the pose stacks of :func:`_fk_stacks`, one stacked
    product each:

    - the joint screws B X for X = (w, v) in body form, B the map of
      :func:`_rep_map`: (R w, t x R w + R v) at a pose W = (R, t) in
      spatial form, and the same at W = (R, 0), that is (R w, R v), in
      hybrid form; one gathered product of the columns R w, R v and t of
      W ``tables.lines``;
    - the inertias B^-T M B^-1 (M in body form), read out of the
      congruences W J W^T of the model's pseudo-inertias J
      (:func:`_read_inertias`), W the pose (spatial) or its rotation
      alone (hybrid); ``pseudo`` keeps the W J W^T;
    - the transforms of each parent's twist into the body's coordinates:
      Ad(rel_i)^-1 in body form, read from ``relative`` (left out when it
      is None), the translations [[I, 0], [[r_p - r_i]x, I]] in hybrid
      form, and none (None) in spatial form; a root's entry is unused;
    - the gravity loads, each inertia times the acceleration of the
      gravity field B Ad(C)^-1 (0, g): M (0, R^T g) in body form and
      I (0, g) = (h x g, m g) in spatial and hybrid form.

    The spatial and hybrid tables count one screw transform and one
    inertia congruence per pose into ``ops``; the hybrid ones are rotations.
    """
    tab, n = model.tables, model.n
    parent = pseudo = None
    if rep == "body":
        screws, inertias = tab.screw, tab.inertia
        if relative is not None:
            parent = _rep_map(relative, "spatial")[1]
        gravity = (inertias[..., 3:] @ (model.gravity @ absolute.rot)[..., None])[..., 0]
    else:
        w = absolute.mat
        if rep == "hybrid":  # the rotations alone, about each body's origin
            w = w * _ROTATION_PART
            par = np.asarray(model.parent)
            parent = np.tile(_EYE6, (n, 1, 1))
            parent[:, 3:, :3] = hat3(np.where(par[:, None] >= 0, absolute.trans[par], 0.0)
                                    - absolute.trans)
        screws = _carried_screws(w, tab.lines)
        pseudo, inertias, gravity = _read_inertias(w, tab.pseudo, tab.readout)
        if ops is not None:
            ops.frame_transforms_screw += len(w)
            ops.frame_transforms_tensor += len(w)
            ops.rotations_screw += len(w) * (rep == "hybrid")
    return _Frames(rep, absolute, screws, inertias, parent, gravity, pseudo)


def _carried_screws(w, lines) -> np.ndarray:
    """The screws (R w, t x R w + R v) of the body screws (w, v) whose
    ``tables.lines`` the 4x4 matrices W = (R, t) carry (leading axes
    are samples), one gathered product of the columns of W lines."""
    f = (w @ lines).reshape(w.shape[:-2] + (12,))
    return _dot(f.take(_SCREW_COLUMNS[0], -1) * f.take(_SCREW_COLUMNS[1], -1), _SCREW_SUM)


def _read_inertias(w, pseudo, readout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W J W^T, inertias, gravity wrenches) of the pseudo-inertias J
    carried by the 4x4 matrices W (one each, or stacks), the last two one
    product of the flattened W J W^T with a readout of
    :func:`screwchain.model.inertia_readout`."""
    carried = w @ pseudo @ w.swapaxes(-1, -2)
    lead = carried.shape[:-2]
    read = _dot(carried.reshape(lead + (16,)), readout)
    return carried, read[..., :36].reshape(lead + (6, 6)), read[..., 36:]


# W @ tables.lines flattened is f = (Rw_x, Rv_x, t_x, Rw_y, Rv_y, t_y, Rw_z,
# Rv_z, t_z, 0, 0, 1) for a screw (w, v) and a 4x4 W with rotation R and
# translation t.  The products f[:, l] f[:, r] of the columns (l, r) below are
# R w and R v (times the 1 of f[:, 11]) and the two halves of t x R w, which
# _SCREW_SUM adds up to the screw (R w, t x R w + R v).
_SCREW_COLUMNS = np.array([[0, 3, 6, 1, 4, 7, 5, 8, 2, 8, 2, 5],
                           [11, 11, 11, 11, 11, 11, 6, 0, 3, 3, 6, 0]])
_SCREW_SUM = np.zeros((12, 6))
_SCREW_SUM[range(6), range(6)] = _SCREW_SUM[range(6, 9), range(3, 6)] = 1.0
_SCREW_SUM[range(9, 12), range(3, 6)] = -1.0
_ROTATION_PART = np.ones((4, 4))
_ROTATION_PART[:3, 3] = 0.0
for _table in (_SCREW_COLUMNS, _SCREW_SUM, _ROTATION_PART):
    _table.setflags(write=False)


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
    js = _carried_screws(absolute.mat, model.tables.lines)
    blocks = _twist_map(absolute, "spatial", rep) @ js.T  # blocks[i, :, j] = T_i js_j
    J = np.where(model._on_path_t[:, None, :], blocks, 0.0)
    return SystemJacobian(rep, J.reshape(6 * n, n), n)


def jacobian(model: ChainModel, q, rep: str = "body") -> SystemJacobian:
    _check_rep(rep)
    return _jacobian(model, _fk_stacks(model, _one_sample(model, q), relative=False)[0], rep)


def _forward_sweep(model: ChainModel, frames: _Frames, state: JointState,
                   ops=None) -> tuple[np.ndarray, np.ndarray]:
    """(twists, accelerations) of all bodies by the counted forward
    recursion of inverse dynamics in the body or hybrid frame table
    ``frames`` (:func:`_frame_table`); a rate left out of ``state`` is 0.

    The accelerations are the time derivative of the twist recursion, so
    every body costs O(1) screw operations.  The joint screws and parent
    transforms come from the table; the loop only applies them; after
    it, ``ops`` counts per link two transforms and one bracket (hybrid:
    translations, and n brackets more).
    """
    n = model.n
    rep = frames.rep
    qd, qdd = (np.zeros(n) if v is None else v for v in (state.qd, state.qdd))
    x, xf = frames.screws, frames.parent
    V, Vd = np.zeros((2, n, 6))
    zero3 = np.zeros(3)

    for i in range(n):
        p = model.parent[i]
        V[i] = x[i] * qd[i]
        Vd[i] = x[i] * qdd[i]
        if rep == "body":
            # xf[i] = Ad(rel_i^-1), d/dt Ad(rel_i^-1) = -qd_i ad(X_i) Ad(rel_i^-1)
            if p >= 0:
                V[i] += xf[i] @ V[p]
                Vd[i] += xf[i] @ Vd[p] - qd[i] * lie_bracket(x[i], V[i])
        else:  # hybrid: d/dt X^h_i = [omega_i, X^h_i], d/dt Ad(r) = ad(r-dot)
            if p >= 0:
                V[i] += xf[i] @ V[p]
            Vd[i] += lie_bracket(screw(V[i][:3], zero3), x[i]) * qd[i]
            if p >= 0:
                rdot_rel = screw(zero3, V[p][3:] - V[i][3:])
                Vd[i] += xf[i] @ Vd[p] + lie_bracket(rdot_rel, V[p])
    if ops is not None:
        hybrid = rep == "hybrid"
        ops.frame_transforms_screw += 2 * len(model.links)
        ops.translations_screw += 2 * len(model.links) * hybrid
        ops.lie_brackets += len(model.links) + n * hybrid
    return V, Vd


def _spatial_motion(model: ChainModel, screws, qd, qdd=None, qddd=None, inertias=None,
                    ops=None) -> tuple[list[np.ndarray], np.ndarray | None]:
    """([V, Vdot] or, with qddd, [V, Vdot, Vddot], balances): the spatial
    motion of all bodies, sums over each body's path of the spatial joint
    ``screws`` js (qdd None is zero), and given ``inertias`` the balances
    M_i Vdot_i - ad^T_{V_i} M_i V_i (else None).  As d/dt js_j =
    [V_j, js_j], these sum js_j qd_j, [V_j, js_j qd_j] + js_j qdd_j and
    js_j qddd_j + [V_j, 2 js_j qdd_j + [V_j, js_j qd_j]] + [Vdot_j, js_j qd_j].
    The first brackets and the co-brackets of M V (0 without inertias;
    the brackets do not read them) are one ``se3._brackets`` call; a
    root's, [js_r qd_r, js_r qd_r], is exactly 0, so ``ops`` counts a
    recursive sweep's: a bracket per link, n co-brackets."""
    up = model._path_t  # up @ a sums a over each body's path
    x = screws * qd[:, None]
    V = _dot(up, x)
    mv = np.zeros_like(x) if inertias is None else (inertias @ V[..., None])[..., 0]
    rates, cob = _brackets(V, np.concatenate((x, mv), axis=1))
    if ops is not None:
        ops.lie_brackets += len(model.links) + len(V)
    if qdd is not None:
        rates += screws * qdd[:, None]
    Vd = _dot(up, rates)
    motion = [V, Vd]
    if qddd is not None:  # [V_j, rates_j + js_j qdd_j] and [Vdot_j, js_j qd_j]
        second = _product(_SE3_BRACKET, np.stack((V, Vd)),
                          np.stack((rates + screws * qdd[:, None], x)))
        motion.append(_dot(up, screws * qddd[:, None] + second[0] + second[1]))
    return motion, None if inertias is None else (inertias @ Vd[..., None])[..., 0] - cob


def _kinematics(model: ChainModel, state: JointState, rep: str,
                ops=None) -> tuple[_Frames, np.ndarray, np.ndarray, np.ndarray | None]:
    """(frame table, twists, accelerations, balances) of ``idyn`` in
    ``rep`` at ``state``, counted into ``ops``: :func:`_spatial_motion`
    with inertias in spatial form, else :func:`_forward_sweep` and None."""
    frames = _frame_table(model, *_fk_stacks(model, _one_sample(model, state.q)), rep, ops)
    if rep != "spatial":
        return (frames, *_forward_sweep(model, frames, state, ops), None)
    qd = np.zeros(model.n) if state.qd is None else state.qd
    (V, Vd), balances = _spatial_motion(model, frames.screws, qd, state.qdd,
                                        inertias=frames.inertias, ops=ops)
    return frames, V, Vd, balances


def _motion(model: ChainModel, state: JointState, rep: str, level: int) -> KinematicsCache:
    """The twists of all bodies in ``rep`` and their first ``level`` time
    derivatives (1: accelerations, 2: jerks; a rate left out of ``state``
    is zero), from one FK pass and the spatial joint screws alone.

    The spatial motion is the path sums of :func:`_spatial_motion`.  The
    body motion is Ad(C)^-1 of it, R^T (omega, v + omega x r) at every
    level, less [V, Vdot] at the jerk level.  The hybrid motion is
    (omega, r-dot) and its derivatives: r-dot = v + omega x r,
    r-ddot = v-dot + omega-dot x r + omega x r-dot and r-dddot = v-ddot +
    omega-ddot x r + 2 omega-dot x r-dot + omega x r-ddot.  Mixed is the
    hybrid motion with its angular part rotated by R^T at every level.
    """
    _check_rep(rep)
    absolute, relative = _fk_stacks(model, _one_sample(model, state.q))
    screws = _carried_screws(absolute.mat, model.tables.lines)
    qd = np.zeros(model.n) if state.qd is None else state.qd
    if level == 0:  # the twists alone are the first path sum
        motion = _dot(model._path_t, screws * qd[:, None])[None]
    else:
        motion = np.stack(_spatial_motion(model, screws, qd, state.qdd,
                                          state.qddd if level == 2 else None)[0])
    if rep != "spatial":
        ang = motion[..., :3]
        lin = motion[..., 3:] + _product(_CROSS, ang, absolute.trans)  # v + omega x r
        if rep != "body" and level >= 1:
            rates = _product(_CROSS, ang[:2], lin[0])  # omega x r-dot, omega-dot x r-dot
            lin[1] += rates[0]
            if level == 2:
                lin[2] += 2.0 * rates[1] + _product(_CROSS, ang[0], lin[1])
        if rep == "mixed":  # R^T omega, as the row omega^T R
            ang = (ang[..., None, :] @ absolute.rot)[..., 0, :]
        motion = np.concatenate((ang, lin), axis=-1)
        if rep == "body":  # R^T of (omega, v + omega x r), less [V, Vdot] for the jerks
            motion = (motion.reshape(-1, model.n, 2, 3) @ absolute.rot).reshape(motion.shape)
            if level == 2:
                motion[2] -= _product(_SE3_BRACKET, motion[0], motion[1])
    return KinematicsCache(rep, absolute, relative, *motion)


def twists(model: ChainModel, q, qd, rep: str = "body") -> KinematicsCache:
    """Twists in the requested representation (:func:`_motion`)."""
    return _motion(model, JointState(q, qd), rep, 0)


def accelerations(model: ChainModel, state: JointState, rep: str = "body") -> KinematicsCache:
    """Twists and accelerations in the requested representation (:func:`_motion`)."""
    return _motion(model, state, rep, 1)


def jerks(model: ChainModel, state: JointState, rep: str = "body") -> KinematicsCache:
    """Twists, accelerations and jerks in the requested representation
    (:func:`_motion`); requires state.qd, state.qdd and state.qddd."""
    if state.qd is None or state.qdd is None or state.qddd is None:
        raise ValueError("jerks: state.qd, state.qdd and state.qddd are required")
    return _motion(model, state, rep, 2)


# --------------------------------------------------------------------------
# Partial derivatives of the Jacobian
# --------------------------------------------------------------------------

def _bracket_table(model: ChainModel, q, rep: str = "body") -> tuple[np.ndarray, np.ndarray]:
    """The ``rep`` Jacobian as jb[l, :, j] = J_lj (zero off body l's path)
    and the table br[l, :, a, b] = [J_la, J_lb] of the brackets of each
    body's columns."""
    n = model.n
    jb = jacobian(model, q, rep).J.reshape(n, 6, n)
    return jb, _pair_table(_SE3_BRACKET, jb, jb)


def _partial_rule(model: ChainModel, rep: str) -> tuple[np.ndarray, bool]:
    """(mask, swap) of :func:`jacobian_partials`: D[i, :, j, k] = [J_ia, J_ib]
    where mask[j, k], else 0, with (a, b) = (k, j) if swap else (j, k)."""
    on_path = model.tables.on_path  # on_path[k, j]: k is on the path of j
    if rep == "body":
        return np.triu(np.ones_like(on_path), 1), False
    return (on_path & ~np.eye(model.n, dtype=bool) if rep == "spatial" else on_path).T, True


def jacobian_partials(model: ChainModel, q, rep: str = "body") -> np.ndarray:
    """Every first partial of the Jacobian at q, as one (n, 6, n, n) table
    D[i, :, j, k] = d(block (i, j)) / d q_k, zero where joint j is off
    body i's path.  Each partial is a Lie bracket of Jacobian columns, so
    the table is the column brackets [J_ia, J_ib] of one Jacobian
    (:func:`_bracket_table`) under the mask of :func:`_partial_rule`:

    - body: [J_ij, J_ik] for j < k, zero for k <= j;
    - spatial: [J_kk, J_jj] for joint k strictly above joint j, else zero;
    - hybrid: the product rule on J^h_ij = Ad(-r_i) js_j,
      [(0, -v_ik), J_ij] + [J_ik, J_ij] when k is on the path of j, with
      v_ik the linear part of J_ik.
    """
    _check_rep(rep, ("body", "spatial", "hybrid"))
    jb, br = _bracket_table(model, q, rep)
    mask, swap = _partial_rule(model, rep)
    d = np.where(mask, br.swapaxes(2, 3) if swap else br, 0.0)
    if rep == "hybrid":
        d[:, 3:] += _pair_table(_CROSS, jb[:, :3], jb[:, 3:])  # [(0, -v_ik), J_ij]
    return d


def _partial_entry(model: ChainModel, sj: SystemJacobian, i: int, j: int,
                   k: int) -> np.ndarray:
    """D[i, :, j, k] of :func:`jacobian_partials` from the two columns of
    the Jacobian ``sj`` it brackets, by :func:`_partial_rule`; the hybrid
    form adds [(0, -v_ik), J_ij] = (0, w_ij x v_ik)."""
    mask, swap = _partial_rule(model, sj.rep)
    a, b = (k, j) if swap else (j, k)
    out = lie_bracket(sj.column(i, a), sj.column(i, b)) if mask[j, k] else np.zeros(6)
    if sj.rep == "hybrid":
        out[3:] += np.cross(sj.column(i, j)[:3], sj.column(i, k)[3:])
    return out


def _check_indices(fn: str, n: int, *indices):
    """IndexError from ``fn`` unless every index names one of n bodies."""
    for idx in indices:
        if not 0 <= idx < n:
            raise IndexError(f"{fn}: index {idx} out of range")


def jacobian_partial(model: ChainModel, q, rep: str, i: int, j: int, k: int) -> np.ndarray:
    """Partial derivative of one Jacobian column w.r.t. one joint variable,
    entry D[i, :, j, k] of :func:`jacobian_partials`, from the two
    Jacobian columns it brackets; the spatial column index i is ignored
    (spatial columns are joint-intrinsic), so that form reads D[j, :, j, k]."""
    _check_rep(rep, ("body", "spatial", "hybrid"))
    _check_indices("jacobian_partial", model.n, i, j, k)
    return _partial_entry(model, jacobian(model, q, rep), j if rep == "spatial" else i, j, k)


def jacobian_partial_n(model: ChainModel, q, rep: str, i: int, j: int,
                       multi_index) -> np.ndarray:
    """Arbitrary-order partial of a Jacobian column by nested brackets.

    The derivative indices are sorted; the body form nests them ascending
    from the inside, the spatial form descending.  Only the body and
    spatial representations have closed forms at order >= 2.
    """
    _check_rep(rep, ("body", "spatial"))
    beta = sorted(int(b) for b in multi_index)
    if len(beta) < 1:
        raise ValueError("jacobian_partial_n: empty multi-index")
    _check_indices("jacobian_partial_n", model.n, i, j, *beta)
    sj = jacobian(model, q, rep)
    if rep == "body":  # the columns off body i's path are zero
        if beta[0] <= j:
            return np.zeros(6)
        acc = sj.column(i, j)
        for b in beta:
            acc = lie_bracket(acc, sj.column(i, b))
        return acc
    if any(not (b < j and model.on_path(b, j)) for b in beta):
        return np.zeros(6)
    acc = sj.column(j, j)
    for b in reversed(beta):
        acc = lie_bracket(sj.column(b, b), acc)
    return acc


def hybrid_jacobian_partial2(model: ChainModel, q, i: int, j: int, k: int,
                             r: int) -> np.ndarray:
    """Second partial of a hybrid Jacobian column w.r.t. q_k then q_r.

    Differentiates the first-order bracket form once more: product rule
    over both bracket arguments, with the exact first partials of the
    hybrid :func:`jacobian_partials` entries inside.  Defined on the
    first-order domain j <= k <= i (zero otherwise).
    """
    _check_indices("hybrid_jacobian_partial2", model.n, i, j, k, r)
    if not (j <= k and model.on_path(j, i) and model.on_path(k, i) and model.on_path(r, i)):
        return np.zeros(6)
    jh, zero3 = jacobian(model, q, "hybrid"), np.zeros(3)
    return (lie_bracket(_partial_entry(model, jh, i, j, r), screw(zero3, jh.column(i, k)[3:]))
            + lie_bracket(jh.column(i, j),
                          screw(zero3, _partial_entry(model, jh, i, k, r)[3:])))


# --------------------------------------------------------------------------
# Acceleration-level inverse kinematics and representation conversion
# --------------------------------------------------------------------------

def accel_ik(model: ChainModel, q, body_twists, body_accels) -> np.ndarray:
    """Joint accelerations from consistent body-fixed twists/accelerations.

    Per joint: qdd_i = X_i . (Vdot_i - A_i Vdot_p + qd_i [X_i, V_i]) / |X_i|^2,
    with A_i = Ad(rel_i)^-1 the parent transform of the body frame table and
    qd_i recovered by the same projection at velocity level; all bodies at
    once, with X_i . A_i V_p read as (A_i^T X_i) . V_p.
    """
    n = model.n
    V = np.asarray(body_twists, dtype=float).reshape(n, 6)
    Vd = np.asarray(body_accels, dtype=float).reshape(n, 6)
    frames = _frame_table(model, *_fk_stacks(model, _one_sample(model, q)), "body")
    x, par = frames.screws, np.asarray(model.parent)
    xa = np.where(par[:, None] >= 0, np.einsum("nji,nj->ni", frames.parent, x), 0.0)
    norm2 = np.einsum("ij,ij->i", x, x)
    qd = (np.einsum("ij,ij->i", x, V) - np.einsum("ij,ij->i", xa, V[par])) / norm2
    xv = _product(_SE3_BRACKET, x, V)  # [x_i, V_i]
    return (np.einsum("ij,ij->i", x, Vd + qd[:, None] * xv)
            - np.einsum("ij,ij->i", xa, Vd[par])) / norm2


def convert_twist(t: Twist, target_rep: str, poses) -> Twist:
    """Exact linear map B_to B_from^-1 between twist representations of
    one body; raises IndexError when ``t.body_index`` names no pose."""
    _check_rep(target_rep)
    if not 0 <= t.body_index < len(poses):
        raise IndexError(f"convert_twist: body_index {t.body_index} out of range")
    m = _twist_map(poses[t.body_index], t.rep, target_rep)
    return Twist(m @ t.s, target_rep, t.body_index)
