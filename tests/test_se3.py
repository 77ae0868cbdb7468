import numpy as np
import pytest
from scipy.linalg import expm

from screwchain import se3
from screwchain.se3 import (
    Pose, ad_matrix, adjoint, adjoint_rot, adjoint_trans, dexp, dexp_inv,
    exp_se3, exp_so3, hat3, lie_bracket, log_se3, log_so3,
    reciprocal_product, screw, vee3, wrench_transform,
)

from conftest import rand_rotation


def rand_screw(rng, max_angle=np.pi - 0.05, max_lin=1.5):
    x = rng.normal(size=6)
    x[:3] *= rng.uniform(0.0, max_angle) / np.linalg.norm(x[:3])
    x[3:] *= rng.uniform(0.0, max_lin) / np.linalg.norm(x[3:])
    return x


def rand_pose(rng):
    return Pose(rand_rotation(rng), rng.normal(size=3))


# ---------------------------------------------------------------------- hat3

def test_hat3_zero():
    assert np.array_equal(hat3([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_hat3_z_axis():
    expect = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(hat3([0.0, 0.0, 1.0]), expect)


def test_hat3_is_cross_product(rng):
    for _ in range(50):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(hat3(v) @ w, np.cross(v, w), atol=1e-14)


def test_vee3_round_trip(rng):
    for _ in range(100):
        v = rng.normal(size=3)
        assert np.allclose(vee3(hat3(v)), v, atol=0.0)


def test_vee3_rejects_non_skew():
    with pytest.raises(ValueError):
        vee3(np.eye(3))


# ------------------------------------------------------------------- exp/log

def test_exp_so3_identity():
    assert np.allclose(exp_so3(np.zeros(3)), np.eye(3), atol=0.0)


def test_exp_so3_quarter_turn():
    r = exp_so3([0.0, 0.0, np.pi / 2])
    expect = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(r, expect, atol=1e-15)


def test_log_exp_so3_round_trip(rng):
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, np.pi - 1e-6) / np.linalg.norm(w)
        worst = max(worst, np.abs(log_so3(exp_so3(w)) - w).max())
    assert worst < 1e-10


def test_log_so3_pi_branch_deterministic():
    for axis in ([1, 0, 0], [0.6, 0.8, 0.0], [-0.6, 0.8, 0.0], [1, 2, 3]):
        axis = np.asarray(axis, dtype=float)
        axis /= np.linalg.norm(axis)
        r = exp_so3(np.pi * axis)
        w1, w2 = log_so3(r), log_so3(r.copy())
        assert np.array_equal(w1, w2)
        assert abs(np.linalg.norm(w1) - np.pi) < 1e-12
        assert np.allclose(exp_so3(w1), r, atol=1e-12)
        # sign convention: first nonzero component positive
        nz = w1[np.abs(w1) > 1e-12]
        assert nz[0] > 0.0


def test_exp_se3_trivials():
    p = exp_se3(np.zeros(6))
    assert np.allclose(p.matrix(), np.eye(4), atol=0.0)
    p = exp_se3(screw([0, 0, 0], [1, 2, 3]))
    assert np.allclose(p.rot, np.eye(3), atol=0.0)
    assert np.allclose(p.trans, [1, 2, 3], atol=0.0)


def test_exp_se3_screw_motion_series_oracle():
    # unit-pitch screw about z: rotation theta, translation pitch*theta,
    # expected translation from the series sum_k ad^k/(k+1)! @ lin
    pitch, theta = 0.3, 1.1
    x = screw([0, 0, theta], [0, 0, pitch * theta])
    p = exp_se3(x)
    series = np.zeros(3)
    k = hat3([0.0, 0.0, theta])
    term = np.eye(3)
    acc = np.eye(3)
    for m in range(1, 60):
        term = term @ k / (m + 1.0)
        acc = acc + term
        if np.linalg.norm(term) < 1e-14:
            break
    series = acc @ np.array([0, 0, pitch * theta])
    assert np.allclose(p.trans, series, atol=1e-14)
    assert np.allclose(p.rot, exp_so3([0, 0, theta]), atol=0.0)


def test_exp_se3_evaluates_its_coefficients_once(rng, monkeypatch):
    # one coefficient evaluation per exponential, and the pose bit for bit
    # that of exp_so3 and so3_left_jacobian, across the series switch
    calls = []
    coeffs = se3._exp_coeffs

    def counted(theta):
        calls.append(theta)
        return coeffs(theta)

    for theta in (0.0, 1e-3, 0.4999, 0.5, 1.3, 3.0):
        x = rand_screw(rng)
        x[:3] *= theta / max(np.linalg.norm(x[:3]), 1e-300)
        expect = Pose(exp_so3(x[:3]), se3.so3_left_jacobian(x[:3]) @ x[3:])
        monkeypatch.setattr(se3, "_exp_coeffs", counted)
        got = exp_se3(x)
        monkeypatch.setattr(se3, "_exp_coeffs", coeffs)
        assert len(calls) == 1
        calls.clear()
        assert got.rot.tobytes() == expect.rot.tobytes()
        assert got.trans.tobytes() == expect.trans.tobytes()


def test_log_exp_se3_round_trip(rng):
    worst = 0.0
    for _ in range(200):
        x = rand_screw(rng, max_angle=np.pi - 0.01)
        worst = max(worst, np.abs(log_se3(exp_se3(x)) - x).max())
    assert worst < 1e-10


def test_log_se3_rejects_pi():
    p = exp_se3(screw([np.pi - 1e-12, 0, 0], [0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        log_se3(p)


# --------------------------------------------------------------- group axioms

def test_group_axioms(rng):
    worst_assoc, worst_inv = 0.0, 0.0
    for _ in range(1000):
        a, b, c = rand_pose(rng), rand_pose(rng), rand_pose(rng)
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        worst_assoc = max(worst_assoc, np.abs(lhs.matrix() - rhs.matrix()).max())
        worst_inv = max(worst_inv,
                        np.abs((a @ a.inverse()).matrix() - np.eye(4)).max())
    assert worst_assoc < 1e-12
    assert worst_inv < 1e-12


def test_pose_rejects_improper_rotation():
    flip = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Pose(flip, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pose_rejects_non_finite_rotation(bad):
    rot = np.eye(3)
    rot[0, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        Pose(rot, np.zeros(3))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        Pose(np.full((3, 3), bad), np.zeros(3))



@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pose_rejects_non_finite_translation(bad):
    with pytest.raises(ValueError, match="translation is not finite"):
        Pose(np.eye(3), [bad, 0.0, 0.0])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="translation is not finite"):
        exp_se3([0.0, 0.0, 0.0, bad, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", range(6))
def test_exp_se3_rejects_non_finite_entries_first(bad, index):
    # no numpy warning (an error under the suite's filterwarnings) and no
    # misleading orthogonality failure: the first bad entry is named
    x = np.array([0.3, -0.2, 0.1, 1.0, 2.0, np.nan])  # a later bad entry
    x[index] = bad
    part = "rotation" if index < 3 else "translation"
    with pytest.raises(ValueError, match=rf"exp_se3: {part} is not finite, got x\[{index}\]"):
        exp_se3(x)


def test_pose_copies_its_inputs():
    rot, trans = np.eye(3), np.array([1.0, 2.0, 3.0])
    p = Pose(rot, trans)
    trans[0] = 5.0
    rot[0, 1] = 2.0
    assert np.array_equal(p.trans, [1.0, 2.0, 3.0])
    assert np.array_equal(p.rot, np.eye(3))


# ------------------------------------------------------------------- adjoint

def test_adjoint_identity():
    assert np.array_equal(adjoint(Pose.identity()), np.eye(6))


def test_adjoint_pure_translation_on_angular_screw(rng):
    for _ in range(20):
        r, w = rng.normal(size=3), rng.normal(size=3)
        out = adjoint(Pose(np.eye(3), r)) @ screw(w, np.zeros(3))
        assert np.allclose(out, screw(w, np.cross(r, w)), atol=1e-14)


def test_adjoint_homomorphism_and_inverse(rng):
    worst = 0.0
    for _ in range(100):
        a, b = rand_pose(rng), rand_pose(rng)
        worst = max(worst, np.abs(adjoint(a @ b) - adjoint(a) @ adjoint(b)).max())
        worst = max(worst,
                    np.abs(adjoint(a) @ adjoint(a.inverse()) - np.eye(6)).max())
    assert worst < 1e-12


def test_adjoint_factorization(rng):
    for _ in range(50):
        p = rand_pose(rng)
        assert np.allclose(adjoint(p),
                           adjoint_trans(p.trans) @ adjoint_rot(p.rot), atol=1e-14)


def test_ad_is_differential_of_adjoint(rng):
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        x = rand_screw(rng)
        fd = (adjoint(exp_se3(h * x)) - adjoint(exp_se3(-h * x))) / (2.0 * h)
        worst = max(worst, np.abs(fd - ad_matrix(x)).max())
    assert worst < 1e-8


# ------------------------------------------------------------------- bracket

def test_bracket_self_is_zero(rng):
    for _ in range(20):
        x = rng.normal(size=6)
        assert np.allclose(lie_bracket(x, x), 0.0, atol=1e-15)


def test_bracket_axis_example():
    z = screw([0, 0, 1], [0, 0, 0])
    x = screw([1, 0, 0], [0, 0, 0])
    assert np.allclose(lie_bracket(z, x), screw([0, 1, 0], [0, 0, 0]), atol=0.0)


def test_bracket_equals_ad_matrix(rng):
    for _ in range(50):
        x, y = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(lie_bracket(x, y), ad_matrix(x) @ y, atol=1e-14)


def test_bracket_bilinear_antisymmetric_jacobi(rng):
    worst = 0.0
    for _ in range(100):
        x, y, z = (rng.normal(size=6) for _ in range(3))
        a, b = rng.normal(size=2)
        worst = max(worst, np.abs(
            lie_bracket(a * x + b * y, z)
            - a * lie_bracket(x, z) - b * lie_bracket(y, z)).max())
        worst = max(worst, np.abs(lie_bracket(x, y) + lie_bracket(y, x)).max())
        jac = (lie_bracket(x, lie_bracket(y, z))
               + lie_bracket(y, lie_bracket(z, x))
               + lie_bracket(z, lie_bracket(x, y)))
        worst = max(worst, np.linalg.norm(jac))
    assert worst < 1e-12


# ------------------------------------------------------------------- wrench

def test_wrench_transform_identity(rng):
    w = rng.normal(size=6)
    assert np.allclose(wrench_transform(Pose.identity(), w), w, atol=0.0)


def test_wrench_transform_moment_of_displaced_force(rng):
    # force applied at a frame displaced by p: pulled back to the base
    # frame it picks up the moment p x f
    for _ in range(20):
        p, f = rng.normal(size=3), rng.normal(size=3)
        w = screw(np.zeros(3), f)
        # the wrench lives in a frame at +p; the base frame seen from
        # there sits at -p, and pulling the wrench back picks up p x f
        out = wrench_transform(Pose(np.eye(3), -p), w)
        assert np.allclose(out, screw(np.cross(p, f), f), atol=1e-13)


def test_wrench_power_invariance(rng):
    worst = 0.0
    for _ in range(100):
        p = rand_pose(rng)
        w, v = rng.normal(size=6), rng.normal(size=6)
        lhs = wrench_transform(p, w) @ (adjoint(p.inverse()) @ v)
        worst = max(worst, abs(lhs - w @ v))
    assert worst < 1e-12


def test_reciprocal_product(rng):
    x = rng.normal(size=6)
    assert reciprocal_product(x, np.zeros(6)) == 0.0
    # zero-pitch screws with intersecting axes are reciprocal
    point = rng.normal(size=3)
    for _ in range(20):
        e1, e2 = rng.normal(size=3), rng.normal(size=3)
        e1 /= np.linalg.norm(e1)
        e2 /= np.linalg.norm(e2)
        s1 = screw(e1, np.cross(point, e1))
        s2 = screw(e2, np.cross(point, e2))
        assert abs(reciprocal_product(s1, s2)) < 1e-14
    for _ in range(50):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert abs(reciprocal_product(a, b) - reciprocal_product(b, a)) < 1e-14


# ---------------------------------------------------------------------- dexp

def test_dexp_zero_is_identity():
    assert np.allclose(dexp(np.zeros(6)), np.eye(6), atol=0.0)
    assert np.allclose(dexp_inv(np.zeros(6)), np.eye(6), atol=0.0)


def dexp_series(x, direction="right", tol=1e-16, max_terms=30):
    """Series form sum_k ad_x^k / (k+1)! of ``dexp``, at -x for "left"."""
    a = ad_matrix(-np.asarray(x) if direction == "left" else np.asarray(x))
    term = np.eye(6)
    total = np.eye(6)
    for k in range(1, max_terms + 1):
        term = term @ a / (k + 1.0)
        total = total + term
        if np.linalg.norm(term) < tol:
            break
    return total


def test_dexp_closed_form_matches_series(rng):
    # internal cross-check of the two evaluation paths
    worst = 0.0
    for _ in range(200):
        x = rand_screw(rng)
        for direction in ("right", "left"):
            worst = max(worst, np.abs(dexp(x, direction)
                                      - dexp_series(x, direction)).max())
    assert worst < 1e-12


def test_dexp_inverse(rng):
    worst = 0.0
    for _ in range(200):
        x = rand_screw(rng)
        worst = max(worst, np.abs(dexp_inv(x) @ dexp(x) - np.eye(6)).max())
        worst = max(worst,
                    np.abs(dexp_inv(x, "left") @ dexp(x, "left") - np.eye(6)).max())
    assert worst < 1e-12


def test_dexp_matches_finite_difference(rng):
    # right: (exp(X + h d) exp(X)^-1)/h pulled to the algebra
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        x = rand_screw(rng, max_angle=2.5)
        d = rng.normal(size=6)
        plus, minus = exp_se3(x + h * d), exp_se3(x - h * d)
        fd = log_se3(plus @ minus.inverse()) / (2.0 * h)
        worst = max(worst, np.abs(fd - dexp(x) @ d).max())
        fd_left = log_se3(minus.inverse() @ plus) / (2.0 * h)
        worst = max(worst, np.abs(fd_left - dexp(x, "left") @ d).max())
    assert worst < 1e-8


def test_dexp_inv_rejects_large_angle():
    x = screw([2.0 * np.pi, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        dexp_inv(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dexp_inv_rejects_non_finite_angle(bad):
    with pytest.raises(ValueError, match="2\\*pi"):
        dexp_inv(np.full(6, bad))


def _van_loan(m):
    """sum_k m^k / (k+1)! as the upper right block of one expm."""
    k = len(m)
    big = np.zeros((2 * k, 2 * k))
    big[:k, :k] = m
    big[:k, k:] = np.eye(k)
    return expm(big)[:k, k:]


# every small-angle switch the exponential family has had (1e-4, 0.1, 0.15
# and 0.5), then on to the 2*pi limit of the inverse maps
EXPM_GRID_ANGLES = (0.0, 1e-8, 0.99e-4, 1.01e-4, 0.099, 0.101, 0.149, 0.151,
                    0.49, 0.51, 1.0, 2.0, 3.1, 4.5, 6.0, 6.25)


@pytest.mark.parametrize("theta", EXPM_GRID_ANGLES)
def test_exp_family_matches_expm_oracles(theta, rng):
    """Forward maps within 2e-14 of the largest entry of a float64 expm
    oracle; each inverse map times its oracle within 5e-14 of I up to
    theta = 3.1 and within 1e-11 beyond, where dexp^-1 grows towards its
    pole at 2*pi."""
    inverse_tol = 5e-14 if theta <= 3.1 else 1e-11
    for lin in (1e-3, 1.0, 10.0):
        omega, v = rng.normal(size=3), rng.normal(size=3)
        omega *= theta / np.linalg.norm(omega)
        v *= lin / np.linalg.norm(v)
        x = screw(omega, v)
        twist = np.zeros((4, 4))
        twist[:3, :3], twist[:3, 3] = hat3(omega), v
        jac = _van_loan(hat3(omega))
        forward = [(exp_so3(omega), expm(hat3(omega))),
                   (exp_se3(x).matrix(), expm(twist)),
                   (se3.so3_left_jacobian(omega), jac)]
        inverse = [(se3.so3_left_jacobian_inv(omega), jac)]
        for direction, sign in (("right", 1.0), ("left", -1.0)):
            oracle = _van_loan(sign * ad_matrix(x))
            forward.append((dexp(x, direction), oracle))
            inverse.append((dexp_inv(x, direction), oracle))
        for got, oracle in forward:
            assert np.abs(got - oracle).max() <= 2e-14 * np.abs(oracle).max()
        for got, oracle in inverse:
            assert np.abs(got @ oracle - np.eye(len(got))).max() <= inverse_tol
