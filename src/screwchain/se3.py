"""Exact kernels for SO(3)/SE(3) group operations and screw algebra.

Conventions used throughout the package (fixed, never reordered):

* A screw is a length-6 float array ``(angular, linear)``: twists are
  ``(omega, v)``, joint screws ``(axis part, moment part)``.
* A wrench is a length-6 float array ``(torque, force)``.  The pairing
  ``wrench @ twist`` is mechanical power.
* A pose is a rotation matrix plus a translation vector (no homogeneous
  4x4 storage; :meth:`Pose.matrix` provides a 4x4 view for I/O).

All values are immutable in spirit: functions never mutate their inputs
and freshly allocated arrays are returned everywhere, so everything here
is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Pose",
    "hat3",
    "vee3",
    "exp_so3",
    "log_so3",
    "so3_left_jacobian",
    "so3_left_jacobian_inv",
    "exp_se3",
    "log_se3",
    "adjoint",
    "adjoint_rot",
    "adjoint_trans",
    "screw",
    "lie_bracket",
    "ad_matrix",
    "wrench_transform",
    "reciprocal_product",
    "dexp",
    "dexp_inv",
]

# Below this rotation angle the trigonometric coefficient functions are
# evaluated by their 4th-order Taylor series (relative error < 1e-12,
# no catastrophic cancellation).
SMALL_ANGLE = 1e-4

# Symmetric-part tolerance for vee3, orthogonality tolerance for Pose.
_SKEW_ATOL = 1e-9


def hat3(v) -> np.ndarray:
    """Skew matrix of a 3-vector: hat3(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee3(m) -> np.ndarray:
    """Inverse of :func:`hat3`; rejects matrices that are not skew."""
    m = np.asarray(m, dtype=float)
    sym = m + m.T
    if np.linalg.norm(sym) > _SKEW_ATOL:
        raise ValueError("vee3: matrix is not skew symmetric")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _sin_cos_coeffs(theta: float) -> tuple[float, float, float]:
    """Coefficients a1 = sin(t)/t, a2 = (1-cos t)/t^2, a3 = (t-sin t)/t^3."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        a1 = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        a2 = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        a3 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
        return a1, a2, a3
    a1 = np.sin(theta) / theta
    a2 = (1.0 - np.cos(theta)) / (theta * theta)
    a3 = (theta - np.sin(theta)) / (theta * theta * theta)
    return a1, a2, a3


def exp_so3(omega) -> np.ndarray:
    """Rodrigues formula: the exponential of a rotation vector."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    a1, a2, _ = _sin_cos_coeffs(theta)
    k = hat3(omega)
    return np.eye(3) + a1 * k + a2 * (k @ k)


def log_so3(r) -> np.ndarray:
    """Rotation vector of a rotation matrix, with norm <= pi.

    The angle-pi branch has no continuous axis choice; the axis is then
    extracted from the largest diagonal entry of (R + I)/2 and its sign
    fixed by making the first nonzero component positive, which makes the
    result deterministic.
    """
    r = np.asarray(r, dtype=float)
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    s = 0.5 * float(np.linalg.norm(w))  # sin(theta) >= 0 on [0, pi]
    c = 0.5 * (float(np.trace(r)) - 1.0)
    theta = float(np.arctan2(s, c))  # well conditioned at both ends
    if theta < SMALL_ANGLE:
        # log(R) ~ skew part, correct to O(theta^3)
        return 0.5 * (1.0 + theta * theta / 6.0) * w
    if np.pi - theta < 1e-6:
        b = (r + np.eye(3)) / 2.0  # == axis outer(axis) at theta == pi
        i = int(np.argmax(np.diag(b)))
        axis = b[:, i] / np.sqrt(b[i, i])
        for comp in axis:
            if abs(comp) > 1e-12:
                if comp < 0.0:
                    axis = -axis
                break
        return theta * axis / np.linalg.norm(axis)
    return theta / (2.0 * s) * w


def so3_left_jacobian(omega) -> np.ndarray:
    """V(omega) with exp_se3 translation = V @ lin; also the SO(3) dexp."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    _, a2, a3 = _sin_cos_coeffs(theta)
    k = hat3(omega)
    return np.eye(3) + a2 * k + a3 * (k @ k)


def so3_left_jacobian_inv(omega) -> np.ndarray:
    """Closed-form inverse of :func:`so3_left_jacobian` (angle < 2*pi)."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    if theta < 0.15:
        # cancellation in 1 - theta sin/(2(1-cos)) dominates below ~0.15;
        # the quartic-plus Taylor tail is exact to ~1e-13 there
        t2 = theta * theta
        a4 = (1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
              + t2 * t2 * t2 / 1209600.0)
    else:
        a4 = (1.0 - 0.5 * theta * np.sin(theta) / (1.0 - np.cos(theta))) / (
            theta * theta
        )
    k = hat3(omega)
    return np.eye(3) - 0.5 * k + a4 * (k @ k)


@dataclass(frozen=True)
class Pose:
    """Element of SE(3): rotation matrix plus translation vector.

    ``Pose(R, r)`` maps body coordinates x to world coordinates R x + r.
    Construction validates orthogonality and det = +1; pass arrays that
    satisfy them (compose/inverse/exp_se3 all do).
    """

    rot: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rot, dtype=float).reshape(3, 3)
        trans = np.asarray(self.trans, dtype=float).reshape(3)
        # written so that a NaN or infinite entry fails the test too
        if not np.linalg.norm(rot.T @ rot - np.eye(3)) <= _SKEW_ATOL:
            raise ValueError("Pose: rotation is not orthogonal")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("Pose: not a proper rotation (det = -1)")
        rot.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "rot", rot)
        object.__setattr__(self, "trans", trans)

    @classmethod
    def _trusted(cls, rot: np.ndarray, trans: np.ndarray) -> "Pose":
        """A pose of read-only float arrays that the package computed as a
        rotation and a translation; skips the validation of ``Pose(...)``."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "rot", rot)
        object.__setattr__(pose, "trans", trans)
        return pose

    @staticmethod
    def identity() -> "Pose":
        rot, trans = np.eye(3), np.zeros(3)
        rot.setflags(write=False)
        trans.setflags(write=False)
        return Pose._trusted(rot, trans)

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.rot @ other.rot, self.rot @ other.trans + self.trans)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rt = self.rot.T
        return Pose(rt, -(rt @ self.trans))

    def apply(self, point) -> np.ndarray:
        return self.rot @ np.asarray(point, dtype=float) + self.trans

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 form, for I/O and the model's load-time tables."""
        m = np.eye(4)
        m[:3, :3] = self.rot
        m[:3, 3] = self.trans
        return m

    def orthonormalized(self) -> "Pose":
        """Polar projection of the rotation block onto SO(3)."""
        u, _, vt = np.linalg.svd(self.rot)
        d = np.sign(np.linalg.det(u @ vt))
        return Pose(u @ np.diag([1.0, 1.0, d]) @ vt, self.trans)


def adjoint(p: Pose) -> np.ndarray:
    """6x6 screw transformation of a pose: blocks [[R, 0], [r~ R, R]]."""
    a = np.zeros((6, 6))
    a[:3, :3] = p.rot
    a[3:, 3:] = p.rot
    a[3:, :3] = hat3(p.trans) @ p.rot
    return a


def adjoint_rot(r) -> np.ndarray:
    """Screw transformation of a pure rotation: blockdiag(R, R)."""
    a = np.zeros((6, 6))
    r = np.asarray(r, dtype=float)
    a[:3, :3] = r
    a[3:, 3:] = r
    return a


def adjoint_trans(r) -> np.ndarray:
    """Screw transformation of a pure translation: [[I, 0], [r~, I]]."""
    a = np.eye(6)
    a[3:, :3] = hat3(r)
    return a


def screw(ang, lin) -> np.ndarray:
    """Assemble a 6-vector screw (angular first, linear second)."""
    out = np.empty(6)
    out[:3] = ang
    out[3:] = lin
    return out


def lie_bracket(x1, x2) -> np.ndarray:
    """Screw product [x1, x2] = (w1 x w2, v1 x w2 + w1 x v2)."""
    w1, v1 = x1[:3], x1[3:]
    w2, v2 = x2[:3], x2[3:]
    return screw(np.cross(w1, w2), np.cross(v1, w2) + np.cross(w1, v2))


def ad_matrix(x) -> np.ndarray:
    """Matrix of the screw product: ad_matrix(x) @ y == lie_bracket(x, y)."""
    a = np.zeros((6, 6))
    wh = hat3(x[:3])
    a[:3, :3] = wh
    a[3:, 3:] = wh
    a[3:, :3] = hat3(x[3:])
    return a


def wrench_transform(p: Pose, w) -> np.ndarray:
    """Re-express a wrench in a frame whose pose in the current one is p.

    Dual of the twist transform: if twists go the other way by
    ``adjoint(p.inverse())``, power is preserved:
    ``wrench_transform(p, W) @ (adjoint(p.inverse()) @ V) == W @ V``.
    """
    return adjoint(p).T @ np.asarray(w, dtype=float)


def reciprocal_product(x1, x2) -> float:
    """Symmetric pairing ang1 . lin2 + lin1 . ang2 of two screws."""
    return float(x1[:3] @ x2[3:] + x1[3:] @ x2[:3])


def _dexp_translation_block(omega, v) -> np.ndarray:
    """Off-diagonal block of the SE(3) dexp in closed form.

    Coefficients are the standard trigonometric ones for the mixed block
    of the SE(3) left Jacobian; below SMALL_ANGLE they switch to their
    Taylor series.
    """
    omega = np.asarray(omega, dtype=float)
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(omega))
    wh = hat3(omega)
    vh = hat3(v)
    if theta < 0.1:
        # the closed forms of b2/b3 cancel catastrophically below ~0.1;
        # four Taylor terms keep the absolute error under 1e-13 up to there
        t2 = theta * theta
        t4 = t2 * t2
        b1 = 1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0 - t4 * t2 / 362880.0
        b2 = 1.0 / 24.0 - t2 / 720.0 + t4 / 40320.0 - t4 * t2 / 3628800.0
        b3 = 1.0 / 120.0 - t2 / 2520.0 + t4 / 120960.0 - t4 * t2 / 9979200.0
    else:
        t2 = theta * theta
        s, c = np.sin(theta), np.cos(theta)
        b1 = (theta - s) / (t2 * theta)
        b2 = (t2 + 2.0 * c - 2.0) / (2.0 * t2 * t2)
        b3 = (2.0 * theta - 3.0 * s + theta * c) / (2.0 * t2 * t2 * theta)
    q = 0.5 * vh
    q += b1 * (wh @ vh + vh @ wh + wh @ vh @ wh)
    q += b2 * (wh @ wh @ vh + vh @ wh @ wh - 3.0 * wh @ vh @ wh)
    q += b3 * (wh @ vh @ wh @ wh + wh @ wh @ vh @ wh)
    return q


def dexp(x, direction: str = "right") -> np.ndarray:
    """Trivialized differential of exp on SE(3).

    ``dexp(X, "right") @ Xdot`` is the spatial twist of exp(X(t)) and
    ``dexp(X, "left") @ Xdot`` (= dexp at -X) the body-fixed twist.
    """
    x = np.asarray(x, dtype=float)
    if direction == "left":
        x = -x
    elif direction != "right":
        raise ValueError("direction must be 'right' or 'left'")
    omega, v = x[:3], x[3:]
    d = np.zeros((6, 6))
    block = so3_left_jacobian(omega)
    d[:3, :3] = block
    d[3:, 3:] = block
    d[3:, :3] = _dexp_translation_block(omega, v)
    return d


def dexp_inv(x, direction: str = "right") -> np.ndarray:
    """Inverse of :func:`dexp`; rejects rotation angles at/past 2*pi."""
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(x[:3])) >= 2.0 * np.pi - 1e-6:
        raise ValueError("dexp_inv: rotation angle too close to 2*pi")
    if direction == "left":
        x = -x
    elif direction != "right":
        raise ValueError("direction must be 'right' or 'left'")
    omega, v = x[:3], x[3:]
    vinv = so3_left_jacobian_inv(omega)
    q = _dexp_translation_block(omega, v)
    d = np.zeros((6, 6))
    d[:3, :3] = vinv
    d[3:, 3:] = vinv
    d[3:, :3] = -vinv @ q @ vinv
    return d


def exp_se3(x) -> Pose:
    """Exponential of a screw: closed form via Rodrigues + left Jacobian."""
    x = np.asarray(x, dtype=float)
    omega, v = x[:3], x[3:]
    return Pose(exp_so3(omega), so3_left_jacobian(omega) @ v)


def log_se3(p: Pose) -> np.ndarray:
    """Principal logarithm of a pose; rejects rotation angles >= pi - 1e-9."""
    omega = log_so3(p.rot)
    if float(np.linalg.norm(omega)) >= np.pi - 1e-9:
        raise ValueError("log_se3: rotation angle too close to pi")
    return screw(omega, so3_left_jacobian_inv(omega) @ p.trans)
