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

import copy
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .se3 import Pose, adjoint, hat3, screw

__all__ = [
    "ModelError",
    "JointModel",
    "BodyModel",
    "ChainModel",
    "SpatialInertia",
    "screw_from_axis",
    "spatial_inertia_body",
    "pseudo_inertia",
    "inertia_readout",
    "binet_inertia",
    "parse_model",
    "serialize_model",
    "load_model",
]

JOINT_KINDS = ("revolute", "prismatic", "helical")
DEFAULT_GRAVITY = (0.0, 0.0, -9.80665)

_UNIT_ATOL = 1e-9


class ModelError(ValueError):
    """Validation or parse failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def screw_from_axis(axis, point, pitch: float = 0.0) -> np.ndarray:
    """Joint screw from a unit axis direction, a point on the axis, and pitch.

    Finite pitch gives ``(e, y x e + pitch * e)`` (revolute when the pitch
    is zero); an infinite pitch is the prismatic sentinel and gives
    ``(0, e)``.
    """
    axis = np.asarray(axis, dtype=float)
    point = np.asarray(point, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > _UNIT_ATOL:
        raise ModelError("axis", "joint axis must be a unit vector")
    if math.isinf(pitch):
        return screw(np.zeros(3), axis)
    (y0, y1, y2), (e0, e1, e2) = point, axis  # y x e as np.cross forms it
    moment = np.array([y1 * e2 - y2 * e1, y2 * e0 - y0 * e2, y0 * e1 - y1 * e0])
    return screw(axis, moment + pitch * axis)


def binet_inertia(theta) -> np.ndarray:
    """Binet substitution tr(T)/2 I - T of a symmetric 3x3 tensor, or of
    each of a stack of them.

    The inverse map is :func:`binet_inertia_inverse` (coefficient 1 on the
    trace term); the two compose to the identity in either order.
    """
    theta = np.asarray(theta, dtype=float)
    trace = np.trace(theta, axis1=-2, axis2=-1)[..., None, None]
    return 0.5 * trace * np.eye(3) - theta


def binet_inertia_inverse(binet) -> np.ndarray:
    """Recover the inertia tensor from its Binet form: tr(B) I - B."""
    binet = np.asarray(binet, dtype=float)
    return np.trace(binet) * np.eye(3) - binet


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
        self.axis = None if axis is None else np.asarray(axis, dtype=float)
        self.point = None if point is None else np.asarray(point, dtype=float)
        self.frame = frame
        if screw_spatial is None and screw_body is None:
            if self.axis is None:
                raise ModelError("joint", "need a screw or an axis/point pair")
            p = self.point if self.point is not None else np.zeros(3)
            s = screw_from_axis(self.axis, p,
                                math.inf if kind == "prismatic" else self.pitch)
            if frame == "spatial":
                screw_spatial = s
            elif frame == "body":
                screw_body = s
            else:
                raise ModelError("joint.frame", f"unknown frame tag {frame!r}")
        self._screw_spatial = (None if screw_spatial is None
                               else np.asarray(screw_spatial, dtype=float))
        self._screw_body = (None if screw_body is None
                            else np.asarray(screw_body, dtype=float))
        self._check_shape()

    def _check_shape(self):
        s = self._screw_spatial if self._screw_spatial is not None else self._screw_body
        if s.shape != (6,):
            raise ModelError("joint", "joint screw must be a 6-vector")
        if np.linalg.norm(s) < _UNIT_ATOL:
            raise ModelError("joint", "joint screw must be nonzero")
        ang, lin = s[:3], s[3:]
        if self.kind == "prismatic":
            if np.linalg.norm(ang) > _UNIT_ATOL:
                raise ModelError("joint", "prismatic screw must have zero angular part")
            if abs(np.linalg.norm(lin) - 1.0) > _UNIT_ATOL:
                raise ModelError("joint", "prismatic direction must be a unit vector")
        else:
            if abs(np.linalg.norm(ang) - 1.0) > _UNIT_ATOL:
                raise ModelError("joint", "joint axis must be a unit vector")
            pitch = float(ang @ lin)
            if self.kind == "revolute" and abs(pitch) > 1e-8:
                raise ModelError("joint", "revolute screw has nonzero pitch")

    def resolve(self, ref_pose: Pose):
        """Fill in the missing screw representation given the body's
        reference pose; cross-check if both were supplied."""
        ad = adjoint(ref_pose)
        if self._screw_spatial is None:
            self._screw_spatial = ad @ self._screw_body
        elif self._screw_body is None:
            self._screw_body = np.linalg.solve(ad, self._screw_spatial)
        else:
            if np.max(np.abs(self._screw_spatial - ad @ self._screw_body)) > 1e-9:
                raise ModelError(
                    "joint", "spatial and body screws disagree through the reference pose")
        self._screw_spatial.setflags(write=False)
        self._screw_body.setflags(write=False)

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
        try:
            self.mass = float(mass)
        except (TypeError, ValueError, OverflowError):
            raise ModelError(f"{_path}.mass", "expected a number") from None
        if not math.isfinite(self.mass):
            raise ModelError(f"{_path}.mass", "must be finite")
        self.com_offset = np.asarray(com_offset, dtype=float).reshape(3)
        self.inertia_com = np.asarray(inertia_com, dtype=float).reshape(3, 3)
        self.ref_pose = ref_pose if ref_pose is not None else Pose.identity()
        if self.mass <= 0.0:
            raise ModelError(f"{_path}.mass", "must be positive")
        if np.max(np.abs(self.inertia_com - self.inertia_com.T)) > 1e-9:
            raise ModelError(f"{_path}.inertia_com", "must be symmetric")
        evals = np.linalg.eigvalsh(self.inertia_com)
        if evals[0] <= 0.0:
            raise ModelError(f"{_path}.inertia_com", "must be positive definite")
        if evals[2] > evals[0] + evals[1] + 1e-9 * evals[2]:
            raise ModelError(f"{_path}.inertia_com",
                             "principal moments violate the triangle inequality")
        self.com_offset.setflags(write=False)
        self.inertia_com.setflags(write=False)


def spatial_inertia_body(body: BodyModel) -> SpatialInertia:
    """6x6 inertia of a body about its reference frame (body representation).

    Parallel-axes form: rotational block Theta_c - m d~ d~, off-diagonal
    blocks +/- m d~, translational block m I.  The COM frame axes are
    taken parallel to the body frame.
    """
    m = body.mass
    dh = hat3(body.com_offset)
    out = np.zeros((6, 6))
    out[:3, :3] = body.inertia_com - m * (dh @ dh)
    out[:3, 3:] = m * dh
    out[3:, :3] = -m * dh
    out[3:, 3:] = m * np.eye(3)
    return SpatialInertia(out, "body")


def pseudo_inertia(body: BodyModel) -> np.ndarray:
    """4x4 pseudo-inertia J = [[S, h], [h^T, m]] of a body about its
    reference frame: S = integral of x x^T dm, the second moment, is Binet's
    tensor of the COM inertia plus m d d^T, and h = m d the first moment
    (Wensing, Kim and Slotine, "Linear Matrix Inequalities for Physically
    Consistent Inertial Parameter Identification", RA-L 2018).  A pose
    W = [[R, t], [0, 1]] carries it into the frame W maps into as W J W^T,
    and :func:`inertia_readout` reads the 6x6 inertia from it."""
    m, d = body.mass, body.com_offset
    out = np.empty((4, 4))
    out[:3, :3] = binet_inertia(body.inertia_com) + m * np.outer(d, d)
    out[:3, 3] = out[3, :3] = m * d
    out[3, 3] = m
    return out


def inertia_readout(gravity) -> np.ndarray:
    """(16, 42) linear map from a flattened pseudo-inertia J (of
    :func:`pseudo_inertia`) to the flattened 6x6 inertia
    [[tr(S) I - S, [h]x], [-[h]x, m I]] and the gravity wrench
    (h x g, m g) that it carries in the field ``gravity``.  It reads the
    symmetric part of J, so a J off symmetry by roundoff still gives an
    exactly symmetric inertia."""
    g = np.asarray(gravity, dtype=float).reshape(3)
    unit = np.eye(16).reshape(16, 4, 4)  # the inertia of entry k of J, all k at once
    j = 0.5 * (unit + unit.swapaxes(1, 2))
    s, h, m = j[:, :3, :3], j[:, :3, 3], j[:, 3, 3, None, None]
    hh = np.zeros((16, 3, 3))  # [h]x, as se3.hat3 builds it
    hh[:, 2, 1], hh[:, 0, 2], hh[:, 1, 0] = h.T
    hh[:, 1, 2], hh[:, 2, 0], hh[:, 0, 1] = -h.T
    out = np.zeros((16, 7, 6))  # rows 0-5 the inertia, row 6 the wrench
    out[:, :3, :3] = np.trace(s, axis1=1, axis2=2)[:, None, None] * np.eye(3) - s
    out[:, :3, 3:], out[:, 3:6, :3], out[:, 3:6, 3:] = hh, -hh, m * np.eye(3)
    out[:, 6, :3], out[:, 6, 3:] = np.cross(h, g), m[:, 0] * g
    return out.reshape(16, 42)


class ChainTables(NamedTuple):
    """Read-only per-body arrays of a model, stacked along a leading body
    axis and fixed at load.

    ``screw`` (n, 6) and ``inertia`` (n, 6, 6) are the body-fixed joint
    screws and body inertias, ``mass`` (n,) and ``com`` (n, 3) the body
    masses and COM offsets.  ``pseudo`` (n, 4, 4) holds the body
    pseudo-inertias of :func:`pseudo_inertia`, and ``readout`` (16, 42),
    the one table without a body axis, is the :func:`inertia_readout` of
    the model's gravity.  ``lines`` (n, 4, 3) holds the columns (w, 0),
    (v, 0) and (0, 0, 0, 1) of each body screw (w, v), which a pose W
    carries into R w, R v and its translation t.  ``on_path`` (n, n) is
    True at [j, i] when body j is on the path from the root to body i, and
    ``path`` is it as floats: path^T a sums a over each body's path, path a
    over its subtree.
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


def _chain_tables(joints, bodies, paths, rel_ref, gravity) -> ChainTables:
    """The :class:`ChainTables` of resolved joints, their bodies, the
    root-to-body paths, the relative reference poses and the gravity."""
    n = len(joints)
    screws = np.array([joint.screw_body for joint in joints])
    prismatic = np.array([joint.kind == "prismatic" for joint in joints])
    rate = np.where(prismatic, 1.0, np.linalg.norm(screws[:, :3], axis=1))
    w = np.array([np.zeros((3, 3)) if is_p else hat3(x[:3])
                  for is_p, x in zip(prismatic, screws)]) / rate[:, None, None]
    v = screws[:, 3:] / rate[:, None]
    w2 = w @ w
    w2v = np.einsum("nij,nj->ni", w2, v)
    gen = np.zeros((n, 4, 4, 4))  # gen[i, k] = G_k of body i
    gen[:, 0], gen[:, 1, :3, :3], gen[:, 2, :3, :3] = np.eye(4), w, w2
    gen[:, 1, :3, 3], gen[:, 2, :3, 3] = -w2v, np.einsum("nij,nj->ni", w, v)
    gen[:, 3, :3, 3] = v + w2v
    lines = np.zeros((n, 4, 3))
    lines[:, :3, 0], lines[:, :3, 1], lines[:, 3, 2] = screws[:, :3], screws[:, 3:], 1.0
    ref = np.array([p.matrix() for p in rel_ref])
    on_path = np.zeros((n, n), dtype=bool)
    for i, path in enumerate(paths):
        on_path[list(path), i] = True
    tables = ChainTables(
        screws, np.array([spatial_inertia_body(b).matrix for b in bodies]),
        np.array([b.mass for b in bodies]), np.array([b.com_offset for b in bodies]),
        np.array([pseudo_inertia(b) for b in bodies]), inertia_readout(gravity), lines,
        on_path, on_path.astype(float), rate,
        (ref[:, None] @ gen).reshape(n, 4, 16))
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _relative_pose(parent: Pose, child: Pose) -> Pose:
    """parent^-1 child, the reference pose of a body relative to its
    parent, computed as ``parent.inverse() @ child`` does but not
    validated again: both poses are."""
    rt = parent.rot.T
    rot, trans = rt @ child.rot, rt @ child.trans - rt @ parent.trans
    rot.setflags(write=False)
    trans.setflags(write=False)
    return Pose._trusted(rot, trans)


class ChainModel:
    """Validated tree of bodies; immutable once constructed.

    Bodies are indexed 0..n-1, ``parent[i]`` is the index of the parent
    body or -1 for the ground, and ``parent[i] < i`` always holds.
    ``joints`` holds resolved copies of the given joints, which are left
    unresolved, so one joint can serve models with different reference poses.
    ``tables`` holds the per-body arrays of :class:`ChainTables`, built
    here once, and ``links`` the (body, parent) pairs of non-root bodies.
    """

    def __init__(self, bodies, joints, parent, gravity=DEFAULT_GRAVITY, name=""):
        self.name = str(name)
        self.bodies: tuple[BodyModel, ...] = tuple(bodies)
        self.joints: tuple[JointModel, ...] = tuple(copy.copy(j) for j in joints)
        self.parent: tuple[int, ...] = tuple(int(p) for p in parent)
        self.gravity = np.asarray(gravity, dtype=float).reshape(3)
        self.gravity.setflags(write=False)
        self.n = len(self.bodies)
        if not self.n:
            raise ModelError("bodies", "must be a non-empty list")
        if len(self.joints) != self.n or len(self.parent) != self.n:
            raise ModelError("bodies", "bodies, joints and parent must have equal length")
        for i, p in enumerate(self.parent):
            if not -1 <= p < i:
                raise ModelError(f"bodies[{i}].parent",
                                 f"parent index {p} must precede body {i} (or be ground)")
        for i, joint in enumerate(self.joints):
            try:
                joint.resolve(self.bodies[i].ref_pose)
            except ModelError as err:
                raise ModelError(f"bodies[{i}].{err.path}", err.message) from None
        self._children: tuple[tuple[int, ...], ...] = tuple(
            tuple(c for c in range(self.n) if self.parent[c] == i)
            for i in range(self.n)
        )
        self._paths = []
        for i, p in enumerate(self.parent):  # parents come first
            self._paths.append((self._paths[p] if p >= 0 else ()) + (i,))
        self.links = tuple((i, p) for i, p in enumerate(self.parent) if p >= 0)
        # Relative reference pose of each body w.r.t. its parent.
        self._rel_ref = [
            b.ref_pose if p < 0 else _relative_pose(self.bodies[p].ref_pose, b.ref_pose)
            for b, p in zip(self.bodies, self.parent)]
        # finite inputs can still overflow, e.g. a mass times a squared
        # offset; the check below reports that, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            self.tables = _chain_tables(self.joints, self.bodies, self._paths,
                                        self._rel_ref, self.gravity)
        for name, arr in zip(ChainTables._fields, self.tables):
            if name == "readout":  # no body axis, and as finite as the gravity
                continue
            bad = np.flatnonzero(~np.isfinite(arr).reshape(self.n, -1).all(axis=1))
            if bad.size:
                raise ModelError(f"bodies[{bad[0]}]", f"{name} table overflows")

    def children(self, i: int) -> tuple[int, ...]:
        return self._children[i]

    def path(self, i: int) -> tuple[int, ...]:
        """Ancestor chain of body i from the root down to i itself
        (indices strictly increasing)."""
        return self._paths[i]

    def on_path(self, j: int, i: int) -> bool:
        """True when j is an ancestor of i or i itself."""
        return j in self._paths[i]

    def rel_ref_pose(self, i: int) -> Pose:
        """Reference pose of body i relative to its parent (q = 0)."""
        return self._rel_ref[i]

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


def _jlist(arr):
    return [float(v) for v in np.asarray(arr).ravel()]


def _jmat(mat):
    return [[float(v) for v in row] for row in np.asarray(mat)]


def _as_floats(value, shape, path):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(path, "expected numeric array") from None
    if arr.shape != shape:
        raise ModelError(path, f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
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
    gravity = _as_floats(doc.get("gravity", DEFAULT_GRAVITY), (3,), "gravity")
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
        com = _as_floats(_require(raw, "com", path), (3,), f"{path}.com")
        inertia = _as_floats(_require(raw, "inertia_com", path), (3, 3),
                             f"{path}.inertia_com")
        if "ref_pose" in raw:
            rp = _require(raw, "ref_pose", path, obj=True)
            rot = _as_floats(_require(rp, "rotation", f"{path}.ref_pose"),
                             (3, 3), f"{path}.ref_pose.rotation")
            trans = _as_floats(_require(rp, "translation", f"{path}.ref_pose"),
                               (3,), f"{path}.ref_pose.translation")
            try:
                ref_pose = Pose(rot, trans)
            except ValueError:
                raise ModelError(f"{path}.ref_pose.rotation",
                                 "not a proper rotation") from None
        else:
            ref_pose = Pose.identity()
        bodies.append(BodyModel(mass, com, inertia, ref_pose, _path=path))

        joint_raw = _require(raw, "joint", path, obj=True)
        kind = _require(joint_raw, "type", f"{path}.joint")
        axis = _as_floats(_require(joint_raw, "axis", f"{path}.joint"),
                          (3,), f"{path}.joint.axis")
        point = _as_floats(joint_raw.get("point", (0.0, 0.0, 0.0)), (3,),
                           f"{path}.joint.point")
        try:
            pitch = float(joint_raw.get("pitch", 0.0))
        except (TypeError, ValueError, OverflowError):
            raise ModelError(f"{path}.joint.pitch", "expected a number") from None
        if not math.isfinite(pitch):
            raise ModelError(f"{path}.joint.pitch", "must be finite")
        if kind == "helical" and "pitch" not in joint_raw:
            raise ModelError(f"{path}.joint.pitch", "missing field")
        frame = joint_raw.get("frame", "spatial")
        try:
            joints.append(JointModel(kind, pitch=pitch, axis=axis, point=point,
                                     frame=frame))
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
    out = {"name": model.name, "gravity": _jlist(model.gravity), "bodies": []}
    for i in range(model.n):
        body = model.bodies[i]
        joint = model.joints[i]
        entry = {
            "parent": model.parent[i] + 1,
            "mass": body.mass,
            "com": _jlist(body.com_offset),
            "inertia_com": _jmat(body.inertia_com),
        }
        rp = body.ref_pose
        if np.any(rp.rot != np.eye(3)) or np.any(rp.trans != 0.0):
            entry["ref_pose"] = {
                "rotation": _jmat(rp.rot),
                "translation": _jlist(rp.trans),
            }
        if joint.axis is not None:
            jout = {"type": joint.kind, "axis": _jlist(joint.axis),
                    "point": _jlist(joint.point if joint.point is not None
                                    else np.zeros(3)),
                    "frame": joint.frame}
            if joint.kind == "helical":
                jout["pitch"] = joint.pitch
        else:
            s = joint.screw_spatial
            ang, lin = s[:3], s[3:]
            if joint.kind == "prismatic":
                axis, point, pitch = lin, np.zeros(3), 0.0
            else:
                pitch = float(ang @ lin)
                axis = ang
                point = np.cross(ang, lin - pitch * ang)
            jout = {"type": joint.kind, "axis": _jlist(axis), "point": _jlist(point),
                    "frame": "spatial"}
            if joint.kind == "helical":
                jout["pitch"] = pitch
        entry["joint"] = jout
        out["bodies"].append(entry)
    return json.dumps(out, indent=2)


def load_model(path) -> ChainModel:
    with open(path, "rb") as fh:
        return parse_model(fh.read())
