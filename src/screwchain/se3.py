"""Exact kernels for SO(3)/SE(3) group operations and screw algebra.

Conventions used throughout the package (fixed, never reordered):

* A screw is a length-6 float array ``(angular, linear)``: twists are
  ``(omega, v)``, joint screws ``(axis part, moment part)``.
* A wrench is a length-6 float array ``(torque, force)``.  The pairing
  ``wrench @ twist`` is mechanical power.
* A pose is a read-only rotation matrix plus translation vector
  (:meth:`Pose.matrix` gives a 4x4 copy); :class:`Pose` says which
  constructors validate and which build trusted poses.

Functions never mutate their inputs and pose arrays are read-only, so
everything here is safe to share across threads.

Every screw-algebra kernel of the package lives here.  :func:`hat3` and
the private ``_blocks``, ``_adjoint_pair`` (Ad(C) and its inverse),
``_brackets``, ``_product``, ``_pair_table`` and ``_dot`` take stacks of
bodies or samples.  :func:`adjoint`, :func:`adjoint_rot`,
:func:`adjoint_trans`, :func:`ad_matrix`, :func:`lie_bracket` and the
exponential family take one screw or pose: on one screw a broadcasting
body costs more per call, and as the stacked kernels never call them, a
count of their calls counts one-screw work only.

The exponential family reads one coefficient function of the rotation
angle t, with one small-angle rule: below t = 0.5 a table of Taylor
coefficients through t**14, above it the closed forms a1 = sin t/t,
a2 = (1 - cos t)/t^2, a3 = (t - sin t)/t^3 and the c's and d's of
dexp = I + c1 A + c2 A^2 + c3 A^3 + c4 A^4 and dexp^-1 = I - A/2 +
d2 A^2 + d4 A^4, where A = ad_X.  These are the degree-4 polynomials that
match (e^z - 1)/z and z/(e^z - 1) at the eigenvalues 0, +-i t of ad_X and
their first derivatives at +-i t (Mueller, Proc. R. Soc. A, 2021).  Each
function of the family raises ValueError on a non-finite argument.

One product rule, ``_dot``, serves the configuration pass, path sums,
brackets and solves: ``a.dot(b)`` for a 2-D a and an at most 2-D b, the
batched ``a @ b`` for stacks.  At n <= 30 a product costs its dispatch:
with numpy 2.4 ``@`` takes about 2 us on a 4x4 or 6x12 operand and
``ndarray.dot`` about 1 us.  A 2-D ``dot`` gives ``@``'s bytes and a
batched ``@`` each sample its own; an N-D ``dot`` rounds otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Pose", "hat3", "vee3", "exp_so3", "log_so3", "so3_left_jacobian",
    "so3_left_jacobian_inv", "exp_se3", "log_se3", "adjoint", "adjoint_rot",
    "adjoint_trans", "screw", "lie_bracket", "ad_matrix", "wrench_transform",
    "reciprocal_product", "dexp", "dexp_inv",
]

# Symmetric-part tolerance for vee3, orthogonality tolerance for Pose.
_SKEW_ATOL = 1e-9


def hat3(v) -> np.ndarray:
    """Skew matrices [v]x of the 3-vectors along the last axis of v:
    hat3(v) @ w == cross(v, w) for one vector, leading axes carried
    through.  One vector is read as Python floats, which is faster and
    gives the same entries, signs of zero included."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        x, y, z = v.tolist()
        return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 2, 1], out[..., 0, 2], out[..., 1, 0] = x, y, z
    out[..., 1, 2], out[..., 2, 0], out[..., 0, 1] = -x, -y, -z
    return out


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


def _finite(fn: str, x, name: str = "x") -> np.ndarray:
    """x as a float array; ValueError from ``fn`` at its first non-finite entry."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        part = "translation" if x.shape == (6,) and bad[0] >= 3 else "rotation"
        raise ValueError(f"{fn}: {part} is not finite, got "
                         f"{name}[{', '.join(map(str, bad))}] = {float(x[tuple(bad)])}")
    return x


def exp_so3(omega) -> np.ndarray:
    """Rodrigues formula: the exponential of a rotation vector."""
    omega = _finite("exp_so3", omega, "omega")
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
    r = _finite("log_so3", r, "r")
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
    omega = _finite("so3_left_jacobian", omega, "omega")
    a2, a3 = _exp_coeffs(float(np.linalg.norm(omega)))[1:3]
    k = hat3(omega)
    return np.eye(3) + a2 * k + a3 * (k @ k)


def so3_left_jacobian_inv(omega) -> np.ndarray:
    """Closed-form inverse of :func:`so3_left_jacobian` (angle < 2*pi)."""
    omega = _finite("so3_left_jacobian_inv", omega, "omega")
    theta = float(np.linalg.norm(omega))
    d2, d4 = _exp_coeffs(theta)[7:]
    a4 = d2 - theta * theta * d4
    k = hat3(omega)
    return np.eye(3) - 0.5 * k + a4 * (k @ k)


@dataclass(frozen=True)
class Pose:
    """Element of SE(3): rotation matrix plus translation vector.

    ``Pose(R, r)`` maps body coordinates x to world coordinates R x + r.
    For poses from outside the package (user code, a model file) it copies
    its inputs and validates orthogonality, det = +1 and a finite
    translation.  Poses derived from valid ones (identity, compose,
    inverse, orthonormalized, exp_se3, forward kinematics) are trusted:
    only a finite result, which overflow can break, is checked (compose,
    exp_se3), and inverse and forward kinematics return views.
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
        """The pose of float arrays (or views) the package computed as a
        rotation and a translation, marked read-only; not validated."""
        rot.setflags(write=False)
        trans.setflags(write=False)
        pose = object.__new__(cls)
        object.__setattr__(pose, "rot", rot)
        object.__setattr__(pose, "trans", trans)
        return pose

    @staticmethod
    def identity() -> "Pose":
        return Pose._trusted(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        trans = self.rot @ other.trans + self.trans
        if not np.isfinite(trans).all():  # rotations cannot overflow, translations can
            raise ValueError("Pose.compose: translation is not finite")
        return Pose._trusted(self.rot @ other.rot, trans)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rt = self.rot.T  # a view of self.rot
        return Pose._trusted(rt, -(rt @ self.trans))

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
        return Pose._trusted(u @ np.diag([1.0, 1.0, d]) @ vt, self.trans)


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
    x = _finite("dexp", x)
    if direction == "left":
        x = -x
    elif direction != "right":
        raise ValueError("direction must be 'right' or 'left'")
    c1, c2, c3, c4 = _exp_coeffs(float(np.linalg.norm(x[:3])))[3:7]
    a = ad_matrix(x)
    a2 = a @ a
    return np.eye(6) + c1 * a + c2 * a2 + (c3 * a + c4 * a2) @ a2


def dexp_inv(x, direction: str = "right") -> np.ndarray:
    """Inverse of :func:`dexp`; rejects rotation angles at/past 2*pi first.

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
    _finite("dexp_inv", x)
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
    evaluation and one skew matrix; ValueError for a non-finite x, and for
    a finite one whose huge angle overflows the result."""
    x = _finite("exp_se3", x)
    omega = x[:3]
    a1, a2, a3 = _exp_coeffs(float(np.linalg.norm(omega)))[:3]
    k = hat3(omega)
    kk = k @ k
    eye = np.eye(3)
    rot, trans = eye + a1 * k + a2 * kk, (eye + a2 * k + a3 * kk) @ x[3:]
    if not (np.isfinite(rot).all() and np.isfinite(trans).all()):
        raise ValueError("exp_se3: result is not finite (the angle overflows it)")
    return Pose._trusted(rot, trans)


def log_se3(p: Pose) -> np.ndarray:
    """Principal logarithm of a pose; rejects rotation angles >= pi - 1e-9."""
    omega = log_so3(p.rot)
    if float(np.linalg.norm(omega)) >= np.pi - 1e-9:
        raise ValueError("log_se3: rotation angle too close to pi")
    return screw(omega, so3_left_jacobian_inv(omega) @ p.trans)


# --------------------------------------------------------------------------
# Stacked kernels: leading axes are bodies or samples
# --------------------------------------------------------------------------

def _blocks(a, c, d) -> np.ndarray:
    """The 6x6 matrix [[a, 0], [c, d]] of 3x3 blocks; c=None is zero.
    Leading axes of d carry through (a stack of matrices)."""
    m = np.zeros(d.shape[:-2] + (6, 6))
    m[..., :3, :3] = a
    if c is not None:
        m[..., 3:, :3] = c
    m[..., 3:, 3:] = d
    return m


def _adjoint_pair(rot, trans) -> tuple[np.ndarray, np.ndarray]:
    """(Ad(C), Ad(C)^-1) of the poses C = (rot, trans), one or a stack:
    Ad(C) = [[R, 0], [t~ R, R]] entry for entry as :func:`adjoint`, and
    its inverse [[R^T, 0], [(t~ R)^T, R^T]], each 3x3 block transposed."""
    ad = _blocks(rot, hat3(trans) @ rot, rot)
    lead = ad.shape[:-2]
    return ad, ad.reshape(lead + (2, 3, 2, 3)).swapaxes(-3, -1).reshape(lead + (6, 6))


# Structure constants: (u x v)_x = _CROSS[x, y, z] u_y v_z, and for screws
# ordered (angular, linear) [X, Y]_x = _SE3_BRACKET[x, y, z] X_y Y_z.
_CROSS = np.zeros((3, 3, 3))
_CROSS[0, 1, 2] = _CROSS[1, 2, 0] = _CROSS[2, 0, 1] = 1.0
_CROSS[0, 2, 1] = _CROSS[2, 1, 0] = _CROSS[1, 0, 2] = -1.0
_SE3_BRACKET = np.zeros((6, 6, 6))
_SE3_BRACKET[:3, :3, :3] = _SE3_BRACKET[3:, 3:, :3] = _SE3_BRACKET[3:, :3, 3:] = _CROSS
_CROSS.setflags(write=False)
_SE3_BRACKET.setflags(write=False)


def _product(consts, x, y) -> np.ndarray:
    """The bilinear product with structure constants ``consts`` of x and y
    along their last axes (stacks of them): x x y for _CROSS, [x, y] for
    _SE3_BRACKET."""
    return np.einsum("abc,...b,...c->...a", consts, x, y)


def _pair_table(consts, u, v) -> np.ndarray:
    """out[l, :, a, b] = the bilinear product with structure constants
    ``consts`` of u[l, :, a] and v[l, :, b], for every body l."""
    return np.einsum("xyz,lya,lzb->lxab", consts, u, v, optimize=True)


def _dot(a, b) -> np.ndarray:
    """a @ b by the product rule of the module docstring."""
    return a.dot(b) if a.ndim == 2 and b.ndim <= 2 else a @ b


def _brackets(v, xp) -> tuple[np.ndarray, np.ndarray]:
    """([v_i, x_i], ad(v_i)^T p_i) for every row i of v and of the (n, 12)
    stack xp = [x | p]: with v_i = (w, v), x_i = (a, b) and p_i = (c, d),
    the cross products of (w x a, w x b + v x a) and -(w x c + v x d, w x d)
    in one gathered product of 36 columns; its callers count them."""
    p = v.take(_PAIR_COLUMNS[0], 1) * xp.take(_PAIR_COLUMNS[1], 1)
    c = _dot(p[:, :18] - p[:, 18:], _PAIR_SUM)
    return c[:, :6], c[:, 6:]


# Columns (l, r) of x = (w, v) and y = (a, b) whose products p = x[:, l] y[:, r]
# give three cross products as p[:, :9] - p[:, 9:]: w x a, w x b, v x a for
# brackets; -(w x a), -(w x b), -(v x b) for co-brackets (products swapped).
_BRACKET_COLUMNS = np.array([[1, 2, 0, 1, 2, 0, 4, 5, 3, 2, 0, 1, 2, 0, 1, 5, 3, 4],
                             [2, 0, 1, 5, 3, 4, 2, 0, 1, 1, 2, 0, 4, 5, 3, 1, 2, 0]])
_COBRACKET_COLUMNS = np.array([[2, 0, 1, 2, 0, 1, 5, 3, 4, 1, 2, 0, 1, 2, 0, 4, 5, 3],
                               [1, 2, 0, 4, 5, 3, 4, 5, 3, 2, 0, 1, 5, 3, 4, 5, 3, 4]])
# Both side by side on v and [x | p] (the co-bracket's right columns moved past
# the 6 of x), ordered so that p[:, :18] - p[:, 18:] is
# (b_0, b_1, c_0, c_1, b_2, c_2) for the cross products b_k of the bracket and
# c_k of the co-bracket.  _PAIR_SUM adds b_2 to b_1 and c_2 to c_0, at most
# two nonzero terms per sum, so it rounds as a plain sum (an in-place sum of
# two views of one array would cost more, in numpy's overlap check).
_PAIR_COLUMNS = np.concatenate(
    [cols[:, part] for part in (slice(0, 6), slice(6, 9), slice(9, 15), slice(15, 18))
     for cols in (_BRACKET_COLUMNS, _COBRACKET_COLUMNS + [[0], [6]])], axis=1)
_PAIR_SUM = np.zeros((18, 12))
_PAIR_SUM[range(12), range(12)] = _PAIR_SUM[range(12, 18), range(3, 9)] = 1.0
