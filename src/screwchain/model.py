"""Declarative chain description: joints, frames, inertia, file I/O.

A model is a tree of rigid bodies indexed ``0 .. n-1`` (Python indexing;
the file format uses 1-based ids with ``parent: 0`` meaning the ground).
Parents always have smaller indices, so the storage order is a
topological order and every recursion is a single array sweep.

The recommended authoring style places every body-fixed reference frame
on the inertial frame at q = 0 (then all reference poses are identity
and the spatial and body-fixed joint screws coincide), but arbitrary
reference poses are accepted.

A model tabulates at load what every configuration pass reads
(:class:`ChainTables`): the body screws and inertias, each body's 4x4
pseudo-inertia with the fixed linear readout of the 6x6 inertia and the
gravity wrench from it, the root-to-body paths as a 0/1 matrix, and each
body's relative pose as a closed form in sin and cos of its joint angle
(:func:`screwchain.kinematics.fk_body_form`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .se3 import Pose, _adjoint_pair, hat3, screw

__all__ = [
    "ModelError",
    "JointModel",
    "BodyModel",
    "ChainModel",
    "SpatialInertia",
    "screw_from_axis",
    "spatial_inertia_body",
    "inertia_readout",
    "binet_inertia",
    "parse_model",
    "serialize_model",
    "load_model",
]

JOINT_KINDS = ("revolute", "prismatic", "helical")
DEFAULT_GRAVITY = (0.0, 0.0, -9.80665)

_UNIT_ATOL = 1e-9
_IDENTITY = Pose.identity()  # read-only, so every body without a reference pose shares it


class ModelError(ValueError):
    """Validation or parse failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _finite(arr) -> bool:
    """np.isfinite(arr).all() in Python floats, cheaper for a few entries."""
    return all(map(math.isfinite, arr.ravel().tolist()))


def screw_from_axis(axis, point, pitch: float = 0.0) -> np.ndarray:
    """Joint screw from a unit axis direction, a point on the axis, and pitch.

    Finite pitch gives ``(e, y x e + pitch * e)`` (revolute when the pitch
    is zero); an infinite pitch is the prismatic sentinel and gives
    ``(0, e)``.
    """
    axis, point = np.asarray(axis, dtype=float), np.asarray(point, dtype=float)
    if abs(math.hypot(*axis.tolist()) - 1.0) > _UNIT_ATOL:
        raise ModelError("axis", "joint axis must be a unit vector")
    if math.isinf(pitch):
        return screw(np.zeros(3), axis)
    (y0, y1, y2), (e0, e1, e2) = point.tolist(), axis.tolist()  # y x e as np.cross forms it
    return np.array([e0, e1, e2, y1 * e2 - y2 * e1 + pitch * e0,
                     y2 * e0 - y0 * e2 + pitch * e1, y0 * e1 - y1 * e0 + pitch * e2])


def binet_inertia(theta) -> np.ndarray:
    """Binet substitution tr(T)/2 I - T of a symmetric 3x3 tensor, or of
    each of a stack of them."""
    theta = np.asarray(theta, dtype=float)
    trace = np.trace(theta, axis1=-2, axis2=-1)[..., None, None]
    return 0.5 * trace * np.eye(3) - theta


@dataclass(frozen=True)
class SpatialInertia:
    """6x6 inertia matrix with its twist-representation tag."""

    matrix: np.ndarray
    rep: str = "body"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).reshape(6, 6)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


class JointModel:
    """One-DOF lower-pair joint: revolute, prismatic, or helical.

    Carries the joint screw both ways: ``screw_spatial`` is the screw in
    inertial coordinates at q = 0, ``screw_body`` the same screw in the
    coordinates of the body the joint drives.  One determines the other
    through the body's reference pose; give either (or both, which are
    then cross-checked).
    """

    def __init__(self, kind, *, screw_spatial=None, screw_body=None,
                 pitch=0.0, axis=None, point=None, frame="spatial"):
        if kind not in JOINT_KINDS:
            raise ModelError("joint.type", f"unknown joint type {kind!r}")
        self.kind = kind
        self.pitch = float(pitch)
        # copies, so the caller's arrays stay writable and later writes to
        # them leave the model as built
        self.axis = None if axis is None else np.array(axis, dtype=float)
        self.point = None if point is None else np.array(point, dtype=float)
        self.frame = frame
        if screw_spatial is None and screw_body is None:
            if self.axis is None:
                raise ModelError("joint", "need a screw or an axis/point pair")
            s = screw_from_axis(self.axis, np.zeros(3) if point is None else self.point,
                                math.inf if kind == "prismatic" else self.pitch)
            if frame == "spatial":
                screw_spatial = s
            elif frame == "body":
                screw_body = s
            else:
                raise ModelError("joint.frame", f"unknown frame tag {frame!r}")
        self._screw_spatial, self._screw_body = (x if x is None else np.array(x, dtype=float)
                                                 for x in (screw_spatial, screw_body))
        self._check_shape()

    def _check_shape(self):
        s = self._screw_spatial if self._screw_spatial is not None else self._screw_body
        if s.shape != (6,):
            raise ModelError("joint", "joint screw must be a 6-vector")
        if not _finite(s):  # from a screw, or an axis, point or pitch
            raise ModelError("joint", "joint screw must be finite")
        if math.hypot(*s.tolist()) < _UNIT_ATOL:
            raise ModelError("joint", "joint screw must be nonzero")
        ang, lin = s[:3], s[3:]
        if self.kind == "prismatic":
            if math.hypot(*ang.tolist()) > _UNIT_ATOL:
                raise ModelError("joint", "prismatic screw must have zero angular part")
            if abs(math.hypot(*lin.tolist()) - 1.0) > _UNIT_ATOL:
                raise ModelError("joint", "prismatic direction must be a unit vector")
        else:
            if abs(math.hypot(*ang.tolist()) - 1.0) > _UNIT_ATOL:
                raise ModelError("joint", "joint axis must be a unit vector")
            if self.kind == "revolute" and abs(float(ang @ lin)) > 1e-8:
                raise ModelError("joint", "revolute screw has nonzero pitch")

    def _resolved(self, screw_spatial, screw_body) -> "JointModel":
        """A copy of the joint carrying both screws, as a model resolves them."""
        joint = object.__new__(type(self))
        joint.__dict__.update(vars(self), _screw_spatial=screw_spatial, _screw_body=screw_body)
        return joint

    @property
    def screw_spatial(self) -> np.ndarray:
        return self._screw_spatial

    @property
    def screw_body(self) -> np.ndarray:
        return self._screw_body


class BodyModel:
    """Mass, center of mass, rotational inertia, and reference pose of a body."""

    def __init__(self, mass, com_offset, inertia_com, ref_pose: Pose | None = None,
                 _path: str = "body"):
        self.mass = _as_float(mass, f"{_path}.mass")
        self.com_offset = np.array(com_offset, dtype=float).reshape(3)
        self.inertia_com = np.array(inertia_com, dtype=float).reshape(3, 3)
        for name in ("com_offset", "inertia_com"):
            if not _finite(getattr(self, name)):
                raise ModelError(f"{_path}.{name}", "must be finite")
        self.ref_pose = ref_pose if ref_pose is not None else _IDENTITY
        if self.mass <= 0.0:
            raise ModelError(f"{_path}.mass", "must be positive")
        (_, t01, t02), (t10, _, t12), (t20, t21, _) = self.inertia_com.tolist()
        if max(abs(t01 - t10), abs(t02 - t20), abs(t12 - t21)) > 1e-9:
            raise ModelError(f"{_path}.inertia_com", "must be symmetric")
        # Python floats, which overflow without a warning
        e0, e1, e2 = np.linalg.eigvalsh(self.inertia_com).tolist()
        if e0 <= 0.0:
            raise ModelError(f"{_path}.inertia_com", "must be positive definite")
        if e2 > e0 + e1 + 1e-9 * e2:
            raise ModelError(f"{_path}.inertia_com",
                             "principal moments violate the triangle inequality")
        self.com_offset.setflags(write=False)
        self.inertia_com.setflags(write=False)
        # the inertia and pseudo-inertia overflow only where their bound,
        # max moment + tr(Theta)/2 + m (1 + |d|^2), does
        d0, d1, d2 = self.com_offset.tolist()
        if not e2 + 0.5 * (e0 + e1 + e2) + self.mass * (1.0 + d0 * d0 + d1 * d1 + d2 * d2) < 1e300:
            with np.errstate(over="ignore", invalid="ignore"):
                tables = _body_inertias(np.array([self.mass]), self.com_offset[None],
                                        self.inertia_com[None])
                if not all(np.isfinite(table).all() for table in tables):
                    raise ModelError(_path, "inertia table overflows")


def _body_inertias(mass, com, inertia_com):
    """The inertias (n, 6, 6) and pseudo-inertias (n, 4, 4) of bodies with
    masses m (n,), COM offsets d (n, 3) and COM inertias Theta_c (n, 3, 3),
    each about its reference frame, the COM axes parallel to the body's.

    The inertia (body representation) has the parallel-axes form:
    rotational block Theta_c - m d~ d~, off-diagonal blocks +/- m d~,
    translational block m I.  The pseudo-inertia is J = [[S, h], [h^T, m]]:
    S = integral of x x^T dm, the second moment, is Binet's tensor of
    Theta_c plus m d d^T, and h = m d the first moment (Wensing, Kim and
    Slotine, "Linear Matrix Inequalities for Physically Consistent Inertial
    Parameter Identification", RA-L 2018).  A pose W = [[R, t], [0, 1]]
    carries J into the frame W maps into as W J W^T, and
    :func:`inertia_readout` reads the inertia from it.
    """
    m, dh = mass[:, None, None], hat3(com)
    inertia = np.zeros((len(mass), 6, 6))
    inertia[:, :3, :3] = inertia_com - m * (dh @ dh)
    inertia[:, :3, 3:], inertia[:, 3:, :3] = m * dh, -m * dh
    inertia[:, 3:, 3:] = m * np.eye(3)
    pseudo = np.empty((len(mass), 4, 4))
    pseudo[:, :3, :3] = binet_inertia(inertia_com) + m * (com[:, :, None] * com[:, None])
    pseudo[:, :3, 3] = pseudo[:, 3, :3] = m[:, 0] * com
    pseudo[:, 3, 3] = mass
    return inertia, pseudo


def spatial_inertia_body(body: BodyModel) -> SpatialInertia:
    """6x6 inertia of a body about its reference frame (body representation)."""
    m, d, theta = np.array([body.mass]), body.com_offset[None], body.inertia_com[None]
    return SpatialInertia(_body_inertias(m, d, theta)[0][0], "body")


def _unit_readout():
    """:func:`inertia_readout` at zero gravity, and the h and m its gravity row reads."""
    unit = np.eye(16).reshape(16, 4, 4)  # the inertia of entry k of J, all k at once
    j = 0.5 * (unit + unit.swapaxes(1, 2))
    s, h, m = j[:, :3, :3], j[:, :3, 3], j[:, 3, 3, None, None]
    hh = hat3(h)
    out = np.zeros((16, 7, 6))  # rows 0-5 the inertia, row 6 the wrench
    out[:, :3, :3] = np.trace(s, axis1=1, axis2=2)[:, None, None] * np.eye(3) - s
    out[:, :3, 3:], out[:, 3:6, :3], out[:, 3:6, 3:] = hh, -hh, m * np.eye(3)
    for arr in (out, h, m):
        arr.setflags(write=False)
    return out, h, m[:, 0, 0]


_UNIT_READOUT = _unit_readout()


def inertia_readout(gravity) -> np.ndarray:
    """(16, 42) linear map from a flattened pseudo-inertia J (of
    :func:`_body_inertias`) to the flattened 6x6 inertia
    [[tr(S) I - S, [h]x], [-[h]x, m I]] and the gravity wrench
    (h x g, m g) that it carries in the field ``gravity``.  It reads the
    symmetric part of J, so a J off symmetry by roundoff still gives an
    exactly symmetric inertia."""
    (zero_g, h, m), g = _UNIT_READOUT, np.asarray(gravity, dtype=float).reshape(3)
    out = zero_g.copy()
    # h x g as np.cross forms it, without its argument handling
    out[:, 6, :3] = h[:, [1, 2, 0]] * g[[2, 0, 1]] - h[:, [2, 0, 1]] * g[[1, 2, 0]]
    out[:, 6, 3:] = m[:, None] * g
    return out.reshape(16, 42)


class ChainTables(NamedTuple):
    """Read-only per-body arrays of a model, stacked along a leading body
    axis and formed at load in one stacked pass over the bodies.

    ``screw`` (n, 6) holds the body-fixed joint screws, ``mass`` (n,) and
    ``com`` (n, 3) the body masses and COM offsets, and ``inertia`` (n, 6, 6)
    and ``pseudo`` (n, 4, 4) the inertias and pseudo-inertias of
    :func:`_body_inertias`.  ``readout`` (16, 42), the one table without a
    body axis, is the :func:`inertia_readout` of the model's gravity.
    ``lines`` (n, 4, 3) holds the columns (w, 0), (v, 0) and (0, 0, 0, 1) of
    each body screw (w, v), which a pose W carries into R w, R v and t.
    ``on_path`` (n, n) is True at [j, i] when body j is on the path from the
    root to body i, and ``path`` is it as floats: path^T a sums a over each
    body's path, path a over its subtree.
    ``exp`` (n, 4, 16) gives the pose relative to the parent, B exp(q X)
    with B the reference pose, as (1, sin a, 1 - cos a, a) times it at
    a = rate q: a revolute or helical screw is rate * (u, v), |u| = 1, and
    exp(q X) = I + sin a G_1 + (1 - cos a) G_2 + a G_3 with W = [u]x and the
    4x4 G_1 = [[W, -W^2 v], 0], G_2 = [[W^2, W v], 0], G_3 = [[0, v + W^2 v], 0];
    a prismatic joint has rate 1, W = 0.  Row k of ``exp[i]`` is B G_k, G_0 = I.
    """

    screw: np.ndarray
    inertia: np.ndarray
    mass: np.ndarray
    com: np.ndarray
    pseudo: np.ndarray
    readout: np.ndarray
    lines: np.ndarray
    on_path: np.ndarray
    path: np.ndarray
    rate: np.ndarray
    exp: np.ndarray


def _resolve_screws(joints, rot, trans):
    """The spatial and body screws (n, 6) of joints whose bodies' reference
    poses C are (rot, trans), by one stacked product with Ad(C) or, for a
    spatial screw, Ad(C)^-1 (:func:`screwchain.se3._adjoint_pair`).
    A joint given in both forms keeps its spatial screw, cross-checked."""
    ad, inv = _adjoint_pair(rot, trans)
    from_body = np.array([j._screw_body is not None for j in joints])[:, None]
    given = np.array([j._screw_spatial if j._screw_body is None else j._screw_body
                      for j in joints])
    carried = (np.where(from_body[..., None], ad, inv) @ given[..., None])[..., 0]
    spatial, body = np.where(from_body, carried, given), np.where(from_body, given, carried)
    for i, joint in enumerate(joints):
        if joint._screw_spatial is not None and joint._screw_body is not None:
            if np.abs(joint._screw_spatial - carried[i]).max() > 1e-9:
                raise ModelError(f"bodies[{i}].joint", "spatial and body screws "
                                                     "disagree through the reference pose")
            spatial[i] = joint._screw_spatial
    return spatial, body


# the model reports finite inputs whose tables overflow, so numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def _chain_tables(bodies, joints, parent, paths, gravity):
    """The :class:`ChainTables` of a model's bodies, joints, parent indices,
    root-to-body paths and gravity, the joints' spatial screws, and the
    reference poses relative to the parents as (rot, trans); all read-only."""
    n = len(bodies)
    rot = np.array([b.ref_pose.rot for b in bodies])
    trans = np.array([b.ref_pose.trans for b in bodies])
    spatial, screws = _resolve_screws(joints, rot, trans)
    # C_p^-1 C_i (C_i at a root), bit for bit and as finite as parent.inverse() @ child
    p = np.array(parent)
    rt, root = rot[p].swapaxes(1, 2), (p < 0)[:, None]
    rel_rot = np.where(root[..., None], rot, rt @ rot)
    rel_trans = np.where(root, trans, (rt @ trans[..., None])[..., 0]
                         + -(rt @ trans[p][..., None])[..., 0])
    bad = np.flatnonzero(~np.isfinite(rel_trans).all(axis=1))
    if bad.size:
        raise ModelError(f"bodies[{bad[0]}].ref_pose",
                         "Pose.compose: translation is not finite")
    prismatic = np.array([j.kind == "prismatic" for j in joints])
    rate = np.where(prismatic, 1.0, np.sqrt(np.add.reduce(screws[:, :3] ** 2, axis=1)))
    w = hat3(screws[:, :3]) / rate[:, None, None]
    w[prismatic] = 0.0
    v = screws[:, 3:] / rate[:, None]
    w2 = w @ w
    w2v = np.einsum("nij,nj->ni", w2, v)
    gen = np.zeros((n, 4, 4, 4))  # gen[i, k] = G_k of body i
    gen[:, 0], gen[:, 1, :3, :3], gen[:, 2, :3, :3] = np.eye(4), w, w2
    gen[:, 1, :3, 3], gen[:, 2, :3, 3] = -w2v, np.einsum("nij,nj->ni", w, v)
    gen[:, 3, :3, 3] = v + w2v
    ref = np.zeros((n, 4, 4))
    ref[:, :3, :3], ref[:, :3, 3], ref[:, 3, 3] = rel_rot, rel_trans, 1.0
    lines = np.zeros((n, 4, 3))
    lines[:, :3, 0], lines[:, :3, 1], lines[:, 3, 2] = screws[:, :3], screws[:, 3:], 1.0
    on_path = np.zeros((n, n), dtype=bool)
    on_path[np.fromiter(itertools.chain.from_iterable(paths), int),
            np.repeat(np.arange(n), [len(path) for path in paths])] = True
    mass, com = np.array([b.mass for b in bodies]), np.array([b.com_offset for b in bodies])
    inertia, pseudo = _body_inertias(mass, com, np.array([b.inertia_com for b in bodies]))
    tables = ChainTables(
        screws, inertia, mass, com, pseudo, inertia_readout(gravity), lines, on_path,
        on_path.astype(float), rate, (ref[:, None] @ gen).reshape(n, 4, 16))
    for arr in (*tables, spatial, rel_rot, rel_trans):
        arr.setflags(write=False)
    return tables, spatial, (rel_rot, rel_trans)


class ChainModel:
    """Validated tree of bodies; immutable once constructed.

    Bodies are indexed 0..n-1, ``parent[i]`` is the index of the parent
    body or -1 for the ground, and ``parent[i] < i`` always holds.
    ``joints`` holds resolved copies of the given joints, which are left
    unresolved, so one joint can serve models with different reference poses.
    ``tables`` holds the per-body arrays of :class:`ChainTables`, built
    here once in one stacked pass over the bodies (:func:`_chain_tables`),
    and ``links`` the (body, parent) pairs of non-root bodies.
    """

    def __init__(self, bodies, joints, parent, gravity=DEFAULT_GRAVITY, name=""):
        self.name = str(name)
        self.bodies: tuple[BodyModel, ...] = tuple(bodies)
        joints = tuple(joints)
        self.parent: tuple[int, ...] = tuple(int(p) for p in parent)
        self.gravity = np.array(gravity, dtype=float).reshape(3)
        if not _finite(self.gravity):
            raise ModelError("gravity", "must be finite")
        self.gravity.setflags(write=False)
        self.n = n = len(self.bodies)
        if not n:
            raise ModelError("bodies", "must be a non-empty list")
        if len(joints) != n or len(self.parent) != n:
            raise ModelError("bodies", "bodies, joints and parent must have equal length")
        self._paths = []
        for i, p in enumerate(self.parent):  # parents come first
            if not -1 <= p < i:
                raise ModelError(f"bodies[{i}].parent",
                                 f"parent index {p} must precede body {i} (or be ground)")
            self._paths.append((self._paths[p] if p >= 0 else ()) + (i,))
        self.links = tuple((i, p) for i, p in enumerate(self.parent) if p >= 0)
        self.tables, spatial, self._rel_ref = _chain_tables(
            self.bodies, joints, self.parent, self._paths, self.gravity)
        self._path_t, self._on_path_t = self.tables.path.T, self.tables.on_path.T  # for every pass
        self.joints: tuple[JointModel, ...] = tuple(
            j._resolved(x, y) for j, x, y in zip(joints, spatial, self.tables.screw))
        per_body = [(name, arr.reshape(n, -1)) for name, arr in zip(
            ChainTables._fields, self.tables) if name != "readout"]  # as finite as gravity
        if not np.isfinite(np.concatenate([arr for _, arr in per_body], axis=1)).all():
            for name, arr in per_body:
                bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
                if bad.size:
                    raise ModelError(f"bodies[{bad[0]}]", f"{name} table overflows")

    def children(self, i: int) -> tuple[int, ...]:
        return tuple(c for c, p in enumerate(self.parent) if p == i)

    def path(self, i: int) -> tuple[int, ...]:
        """Ancestor chain of body i from the root down to i itself
        (indices strictly increasing)."""
        return self._paths[i]

    def on_path(self, j: int, i: int) -> bool:
        """True when j is an ancestor of i or i itself."""
        return j in self._paths[i]

    def rel_ref_pose(self, i: int) -> Pose:
        """Reference pose of body i relative to its parent (q = 0)."""
        return Pose._trusted(self._rel_ref[0][i], self._rel_ref[1][i])

    def inertia_body(self, i: int) -> np.ndarray:
        """Body-representation 6x6 inertia of body i (about its BFR)."""
        return self.tables.inertia[i]

    def dof(self) -> int:
        return self.n

    def total_mass(self) -> float:
        return float(sum(b.mass for b in self.bodies))


# --------------------------------------------------------------------------
# Model file I/O (JSON document per the schema in the package README).
# --------------------------------------------------------------------------

def _require(mapping, key, path, obj=False):
    """mapping[key]; with ``obj`` it must be an object."""
    if key not in mapping:
        raise ModelError(f"{path}.{key}" if path else key, "missing field")
    if obj and not isinstance(mapping[key], dict):
        raise ModelError(f"{path}.{key}", "must be an object")
    return mapping[key]


def _as_float(value, path) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(path, "expected a number") from None
    if not math.isfinite(x):
        raise ModelError(path, "must be finite")
    return x


def _as_floats(mapping, key, path, shape, default=None):
    """mapping[key], or a given default, as a finite float array of a shape."""
    value = _require(mapping, key, path) if default is None else mapping.get(key, default)
    path = f"{path}.{key}" if path else key
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(path, "expected numeric array") from None
    if arr.shape != shape:
        raise ModelError(path, f"expected shape {shape}, got {arr.shape}")
    if not _finite(arr):
        raise ModelError(path, "must be finite")
    return arr


@np.errstate(over="ignore", invalid="ignore")
def parse_model(text: str | bytes) -> ChainModel:
    """Parse and fully validate a model document.

    Every malformed input raises :class:`ModelError` with the offending
    field path, a non-finite number among them, or one whose finite
    numbers overflow the model's tables; nothing is partially constructed,
    and numpy's floating-point warnings are off while the checks run.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelError("", f"invalid JSON at line {err.lineno}, column {err.colno}: "
                             f"{err.msg}") from None
    if not isinstance(doc, dict):
        raise ModelError("", "top level must be an object")
    name = doc.get("name", "")
    gravity = _as_floats(doc, "gravity", "", (3,), DEFAULT_GRAVITY)
    raw_bodies = _require(doc, "bodies", "")
    if not isinstance(raw_bodies, list) or not raw_bodies:
        raise ModelError("bodies", "must be a non-empty list")

    bodies, joints, parents = [], [], []
    for k, raw in enumerate(raw_bodies):
        path = f"bodies[{k}]"
        if not isinstance(raw, dict):
            raise ModelError(path, "must be an object")
        try:
            parent_file = int(_require(raw, "parent", path))
        except (TypeError, ValueError, OverflowError):
            raise ModelError(f"{path}.parent", "expected an integer") from None
        if not 0 <= parent_file <= k:
            raise ModelError(f"{path}.parent",
                             f"index {parent_file} out of range (0..{k} allowed)")
        parents.append(parent_file - 1)

        mass = _require(raw, "mass", path)
        com = _as_floats(raw, "com", path, (3,))
        inertia = _as_floats(raw, "inertia_com", path, (3, 3))
        ref_pose = None
        if "ref_pose" in raw:
            rp = _require(raw, "ref_pose", path, obj=True)
            rot = _as_floats(rp, "rotation", f"{path}.ref_pose", (3, 3))
            trans = _as_floats(rp, "translation", f"{path}.ref_pose", (3,))
            try:
                ref_pose = Pose(rot, trans)
            except ValueError:
                raise ModelError(f"{path}.ref_pose.rotation",
                                 "not a proper rotation") from None
        bodies.append(BodyModel(mass, com, inertia, ref_pose, _path=path))

        joint_raw = _require(raw, "joint", path, obj=True)
        kind = _require(joint_raw, "type", f"{path}.joint")
        axis = _as_floats(joint_raw, "axis", f"{path}.joint", (3,))
        point = _as_floats(joint_raw, "point", f"{path}.joint", (3,), (0.0, 0.0, 0.0))
        pitch = _as_float(joint_raw.get("pitch", 0.0), f"{path}.joint.pitch")
        if kind == "helical" and "pitch" not in joint_raw:
            raise ModelError(f"{path}.joint.pitch", "missing field")
        try:
            joints.append(JointModel(kind, pitch=pitch, axis=axis, point=point,
                                     frame=joint_raw.get("frame", "spatial")))
        except ModelError as err:
            raise ModelError(f"{path}.{err.path}", err.message) from None

    try:
        return ChainModel(bodies, joints, parents, gravity, name)
    except ModelError:
        raise
    except ValueError as err:
        raise ModelError("", str(err)) from None


def serialize_model(model: ChainModel) -> str:
    """Inverse of :func:`parse_model` up to float formatting.

    Joints authored from an axis/point pair are written back verbatim;
    joints built directly from screws have an equivalent axis/point
    derived (the point closest to the origin).
    """
    out = {"name": model.name, "gravity": model.gravity.tolist(), "bodies": []}
    for body, joint, parent in zip(model.bodies, model.joints, model.parent):
        entry = {"parent": parent + 1, "mass": body.mass,
                 "com": body.com_offset.tolist(), "inertia_com": body.inertia_com.tolist()}
        rot, trans = body.ref_pose.rot, body.ref_pose.trans
        if np.any(rot != np.eye(3)) or np.any(trans != 0.0):
            entry["ref_pose"] = {"rotation": rot.tolist(), "translation": trans.tolist()}
        if joint.axis is not None:
            axis, pitch, frame = joint.axis, joint.pitch, joint.frame
            point = joint.point if joint.point is not None else np.zeros(3)
        else:
            (ang, lin), frame = joint.screw_spatial.reshape(2, 3), "spatial"
            if joint.kind == "prismatic":
                axis, point, pitch = lin, np.zeros(3), 0.0
            else:
                pitch = float(ang @ lin)
                axis, point = ang, np.cross(ang, lin - pitch * ang)
        entry["joint"] = {"type": joint.kind, "axis": axis.tolist(), "point": point.tolist(),
                          "frame": frame}
        if joint.kind == "helical":
            entry["joint"]["pitch"] = pitch
        out["bodies"].append(entry)
    return json.dumps(out, indent=2)


def load_model(path) -> ChainModel:
    with open(path, "rb") as fh:
        return parse_model(fh.read())
