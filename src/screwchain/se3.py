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

The exponential family reads one coefficient function of the rotation
angle t, with one small-angle rule: below t = 0.5 a table of Taylor
coefficients through t**14, above it the closed forms a1 = sin t/t,
a2 = (1 - cos t)/t^2, a3 = (t - sin t)/t^3 and the c's and d's of
dexp = I + c1 A + c2 A^2 + c3 A^3 + c4 A^4 and dexp^-1 = I - A/2 +
d2 A^2 + d4 A^4, where A = ad_X.  These are the degree-4 polynomials that
match (e^z - 1)/z and z/(e^z - 1) at the eigenvalues 0, +-i t of ad_X and
their first derivatives at +-i t (Mueller, Proc. R. Soc. A, 2021).
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


# Row i of _SERIES: the coefficients of t**0, t**2, ..., t**14 in the i-th of
# a1, a2, a3, c1..c4, d2, d4.  Against 50-digit values, a switch to the closed
# forms anywhere from t = 0.3 to 0.7 keeps each coefficient's error, times the
# power of t that its matrix carries, under 1e-15.
_SERIES_ANGLE = 0.5
_SERIES = np.array([
    [1, -1/6, 1/120, -1/5040, 1/362880, -1/39916800, 1/6227020800,
     -1/1307674368000],
    [1/2, -1/24, 1/720, -1/40320, 1/3628800, -1/479001600, 1/87178291200,
     -1/20922789888000],
    [1/6, -1/120, 1/5040, -1/362880, 1/39916800, -1/6227020800,
     1/1307674368000, -1/355687428096000],
    [1/2, 0, -1/720, 1/20160, -1/1209600, 1/119750400, -1/17435658240,
     1/3487131648000],
    [1/6, 0, -1/5040, 1/181440, -1/13305600, 1/1556755200, -1/261534873600,
     1/59281238016000],
    [1/24, -1/360, 1/13440, -1/907200, 1/95800320, -1/14529715200,
     1/2988969984000, -1/800296713216000],
    [1/120, -1/2520, 1/120960, -1/9979200, 1/1245404160, -1/217945728000,
     1/50812489728000, -1/15205637551104000],
    [1/12, 0, -1/30240, -1/604800, -1/15966720, -691/326918592000,
     -1/14944849920, -3617/1778437140480000],
    [-1/720, -1/15120, -1/403200, -1/11975040, -691/261534873600,
     -1/12454041600, -3617/1524374691840000, -43867/638636777146368000],
])
_POWERS = np.arange(8.0)


def _exp_coeffs(theta):
    """a1, a2, a3, c1, c2, c3, c4, d2, d4 (module docstring) at angle theta."""
    if theta < _SERIES_ANGLE:
        return _SERIES @ (theta * theta) ** _POWERS
    t2 = theta * theta
    a1 = np.sin(theta) / theta
    a2 = 0.5 * (np.sin(0.5 * theta) / (0.5 * theta)) ** 2  # no 1 - cos t
    a3 = (theta - np.sin(theta)) / (t2 * theta)
    c3 = (2.0 * a2 - a1) / (2.0 * t2)
    c4 = (3.0 * a3 - a2) / (2.0 * t2)
    d4 = (c3 - 0.25 * a3) / (a2 * t2)
    return (a1, a2, a3, 2.0 * a2 - 0.5 * a1, 0.5 * (5.0 * a3 - a2), c3, c4,
            c3 / a2 + d4 * t2, d4)


def exp_so3(omega) -> np.ndarray:
    """Rodrigues formula: the exponential of a rotation vector."""
    omega = np.asarray(omega, dtype=float)
    a1, a2 = _exp_coeffs(float(np.linalg.norm(omega)))[:2]
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
    return w / (2.0 * _exp_coeffs(theta)[0])  # theta / (2 sin theta) * w


def so3_left_jacobian(omega) -> np.ndarray:
    """V(omega) with exp_se3 translation = V @ lin; also the SO(3) dexp."""
    omega = np.asarray(omega, dtype=float)
    a2, a3 = _exp_coeffs(float(np.linalg.norm(omega)))[1:3]
    k = hat3(omega)
    return np.eye(3) + a2 * k + a3 * (k @ k)


def so3_left_jacobian_inv(omega) -> np.ndarray:
    """Closed-form inverse of :func:`so3_left_jacobian` (angle < 2*pi)."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    d2, d4 = _exp_coeffs(theta)[7:]
    a4 = d2 - theta * theta * d4
    k = hat3(omega)
    return np.eye(3) - 0.5 * k + a4 * (k @ k)


@dataclass(frozen=True)
class Pose:
    """Element of SE(3): rotation matrix plus translation vector.

    ``Pose(R, r)`` maps body coordinates x to world coordinates R x + r.
    Construction copies its inputs and validates orthogonality, det = +1
    and a finite translation; pass arrays that satisfy them
    (compose/inverse/exp_se3 all do).
    """

    rot: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        rot = np.array(self.rot, dtype=float).reshape(3, 3)
        trans = np.array(self.trans, dtype=float).reshape(3)
        # written so that a NaN or infinite entry fails the test too
        if not np.linalg.norm(rot.T @ rot - np.eye(3)) <= _SKEW_ATOL:
            raise ValueError("Pose: rotation is not orthogonal")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("Pose: not a proper rotation (det = -1)")
        if not np.isfinite(trans).all():
            raise ValueError("Pose: translation is not finite")
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
    c1, c2, c3, c4 = _exp_coeffs(float(np.linalg.norm(x[:3])))[3:7]
    a = ad_matrix(x)
    a2 = a @ a
    return np.eye(6) + c1 * a + c2 * a2 + (c3 * a + c4 * a2) @ a2


def dexp_inv(x, direction: str = "right") -> np.ndarray:
    """Inverse of :func:`dexp`; rejects rotation angles at/past 2*pi.

    Near that limit d2 A^2 and d4 A^4 grow large and cancel, so the result
    loses about a digit against the correctly rounded inverse: at angle
    6.25 with |v| = 10 the residual dexp_inv(X) dexp(X) - I (against a
    50-digit dexp) reaches 1.2e-11 to 1.7e-11, where the rounded exact
    inverse reaches 1.1e-12.
    """
    x = np.asarray(x, dtype=float)
    theta = float(np.linalg.norm(x[:3]))
    # written so that a NaN or infinite angle fails the test too
    if not theta < 2.0 * np.pi - 1e-6:
        raise ValueError("dexp_inv: rotation angle too close to 2*pi")
    if direction == "left":
        x = -x
    elif direction != "right":
        raise ValueError("direction must be 'right' or 'left'")
    d2, d4 = _exp_coeffs(theta)[7:]
    a = ad_matrix(x)
    a2 = a @ a
    return np.eye(6) - 0.5 * a + d2 * a2 + d4 * (a2 @ a2)


def exp_se3(x) -> Pose:
    """Exponential of a screw: the rotation of :func:`exp_so3` and the
    translation V @ lin of :func:`so3_left_jacobian`, from one coefficient
    evaluation and one skew matrix; a non-finite x raises ValueError first."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValueError(f"exp_se3: {'rotation' if bad < 3 else 'translation'} is not "
                         f"finite, got x[{bad}] = {x[bad]!r}")
    omega = x[:3]
    a1, a2, a3 = _exp_coeffs(float(np.linalg.norm(omega)))[:3]
    k = hat3(omega)
    kk = k @ k
    eye = np.eye(3)
    return Pose(eye + a1 * k + a2 * kk, (eye + a2 * k + a3 * kk) @ x[3:])


def log_se3(p: Pose) -> np.ndarray:
    """Principal logarithm of a pose; rejects rotation angles >= pi - 1e-9."""
    omega = log_so3(p.rot)
    if float(np.linalg.norm(omega)) >= np.pi - 1e-9:
        raise ValueError("log_se3: rotation angle too close to pi")
    return screw(omega, so3_left_jacobian_inv(omega) @ p.trans)
