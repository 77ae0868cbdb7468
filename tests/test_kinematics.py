import numpy as np
import pytest

from screwchain import se3
from screwchain.cli import _benchmark_chain
from screwchain.kinematics import (
    JointState, Twist, accel_ik, accelerations, convert_twist, fk, fk_body_form,
    hybrid_jacobian_partial2, jacobian, jacobian_partial, jacobian_partial_n,
    jacobian_partials, jerks, twists,
)
from screwchain.integrators import RigidBodyState
from screwchain.model import BodyModel, ChainModel, JointModel
from screwchain.se3 import Pose, ad_matrix, adjoint, adjoint_rot, lie_bracket, screw

from conftest import JacobianOracle, fk_spatial_oracle, planar_2r_model, random_chain

REPS3 = ("body", "spatial", "hybrid")
REPS4 = ("body", "spatial", "hybrid", "mixed")


# ---------------------------------------------------------------------- fk

def test_fk_reference_configuration(rng):
    model = random_chain(rng, 5, tree=True)
    for i, pose in enumerate(fk(model, np.zeros(5))):
        ref = model.bodies[i].ref_pose
        assert np.allclose(pose.matrix(), ref.matrix(), atol=1e-14)


def test_fk_single_revolute_quarter_turn():
    model = ChainModel(
        [BodyModel(1.0, [0.1, 0, 0], np.eye(3) * 0.1)],
        [JointModel("revolute", axis=[0, 0, 1], point=[0, 0, 0])],
        [-1])
    pose = fk(model, [np.pi / 2])[0]
    assert np.allclose(pose.rot,
                       [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)
    assert np.allclose(pose.trans, 0.0, atol=0.0)


def test_fk_planar_2r_tip_trigonometry(rng):
    model = planar_2r_model()
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, size=2)
        tip = fk(model, q)[1].apply([1.0, 0.0, 0.0])
        expect = [np.cos(q[0]) + np.cos(q[0] + q[1]),
                  np.sin(q[0]) + np.sin(q[0] + q[1]), 0.0]
        assert np.allclose(tip, expect, atol=1e-13)


def test_fk_poe_forms_agree(rng):
    # product of spatial-screw exponentials vs the package's body-fixed one
    for trial in range(10):
        n = int(rng.integers(1, 8))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q = rng.normal(size=n)
        for a, b in zip(fk_spatial_oracle(model, q), fk(model, q)):
            assert np.allclose(a.matrix(), b.matrix(), atol=1e-12)


# ----------------------------------------------------------------- jacobian

def test_jacobian_times_qd_equals_twists(rng):
    for trial in range(10):
        n = int(rng.integers(1, 8))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd = rng.normal(size=n), rng.normal(size=n)
        for rep in REPS4:
            sj = jacobian(model, q, rep)
            cache = twists(model, q, qd, rep)
            assert np.allclose((sj.J @ qd).reshape(n, 6), cache.twists,
                               atol=1e-12)


def test_jacobian_factorization(rng):
    for trial in range(8):
        n = int(rng.integers(1, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q = rng.normal(size=n)
        for rep in REPS4:
            oracle = JacobianOracle(model, q, rep)
            assert np.allclose(oracle.A @ oracle.X, jacobian(model, q, rep).J, atol=1e-12)


def test_jacobian_column_rejects_bad_indices(rng):
    model = random_chain(rng, 3)
    sj = jacobian(model, rng.normal(size=3), "body")
    for i, j in ((-1, 0), (3, 0), (0, -1), (0, 3)):
        with pytest.raises(IndexError):
            sj.column(i, j)


def test_spatial_columns_are_body_independent(rng):
    model = random_chain(rng, 6)
    q = rng.normal(size=6)
    sj = jacobian(model, q, "spatial")
    for j in range(6):
        for i in range(j, 6):
            assert np.array_equal(sj.column(i, j), sj.column(j, j))


def test_jacobian_columns_vanish_off_ancestor_path(rng):
    model = random_chain(rng, 6, tree=True)
    q = rng.normal(size=6)
    for rep in REPS4:
        sj = jacobian(model, q, rep)
        for i in range(6):
            for j in range(6):
                if not model.on_path(j, i):
                    assert np.array_equal(sj.column(i, j), np.zeros(6))


def test_body_jacobian_matches_fd_of_fk(rng):
    model = random_chain(rng, 4)
    q = rng.normal(size=4)
    h = 1e-6
    sj = jacobian(model, q, "body")
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        pp = fk(model, q + h * e)
        pm = fk(model, q - h * e)
        for i in range(j, 4):
            fd = se3.log_se3(pm[i].inverse() @ pp[i]) / (2 * h)
            assert np.allclose(fd, sj.column(i, j), atol=1e-8)


# ------------------------------------------------------------------- twists

def test_twists_trivials(rng):
    model = random_chain(rng, 4, tree=True)
    q = rng.normal(size=4)
    for rep in REPS4:
        assert np.allclose(twists(model, q, np.zeros(4), rep).twists, 0.0,
                           atol=0.0)
    single = random_chain(rng, 1)
    cache = twists(single, [0.3], [1.0], "body")
    assert np.allclose(cache.twists[0], single.joints[0].screw_body, atol=1e-15)


def test_sweep_poses_are_the_fk_poses(rng):
    # a cache builds its pose lists from the sweep's stacks when first read
    model = random_chain(rng, 5, tree=True)
    q, qd = rng.normal(size=5), rng.normal(size=5)
    absolute, relative = fk(model, q), fk_body_form(model, q)[1]
    for rep in REPS4:
        cache = twists(model, q, qd, rep)
        for got, want in ((cache.poses, absolute), (cache.rel_poses, relative)):
            assert len(got) == len(want) == 5
            for a, b in zip(got, want):
                assert np.array_equal(a.rot, b.rot) and np.array_equal(a.trans, b.trans)
        assert cache.poses is cache.poses


def test_twist_cross_recursion_closure(rng):
    # body-recursion output converted to spatial equals the spatial recursion
    for trial in range(8):
        n = int(rng.integers(1, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd = rng.normal(size=n), rng.normal(size=n)
        cb = twists(model, q, qd, "body")
        cs = twists(model, q, qd, "spatial")
        ch = twists(model, q, qd, "hybrid")
        for i in range(n):
            vs = adjoint(cb.poses[i]) @ cb.twists[i]
            assert np.allclose(vs, cs.twists[i], atol=1e-12)
            vh = adjoint_rot(cb.poses[i].rot) @ cb.twists[i]
            assert np.allclose(vh, ch.twists[i], atol=1e-12)


def test_convert_twist_four_cycle(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        model = random_chain(rng, n)
        q, qd = rng.normal(size=n), rng.normal(size=n)
        cache = twists(model, q, qd, "body")
        i = int(rng.integers(0, n))
        t0 = Twist(cache.twists[i], "body", i)
        t = t0
        for rep in ("spatial", "hybrid", "mixed", "body"):
            t = convert_twist(t, rep, cache.poses)
        assert np.allclose(t.s, t0.s, atol=1e-13)


def test_convert_twist_rejects_bad_body_index(rng):
    model = random_chain(rng, 3)
    poses = fk(model, rng.normal(size=3))
    for idx in (-1, 3):
        with pytest.raises(IndexError):
            convert_twist(Twist(rng.normal(size=6), "body", idx), "spatial", poses)


def test_convert_twist_spatial_of_pure_rotation(rng):
    # spatial linear part of a rotation about an axis through the body
    # origin is r x omega
    for _ in range(20):
        w = rng.normal(size=3)
        pose = Pose(np.eye(3), rng.normal(size=3))
        t = Twist(screw(w, np.zeros(3)), "body", 0)
        out = convert_twist(t, "spatial", [pose])
        assert np.allclose(out.s, screw(w, np.cross(pose.trans, w)), atol=1e-13)



@pytest.mark.parametrize("bad, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_non_finite_entries_are_named_as_python_floats(bad, text):
    # "got q[1] = nan", not numpy's "np.float64(nan)"
    model = planar_2r_model()
    x = np.zeros(6)
    x[1] = bad
    calls = [(lambda: se3.exp_se3(x), "x[1]"), (lambda: fk(model, [0.0, bad]), "q[1]"),
             (lambda: JointState([0.0, 0.0], [0.0, bad]), "qd[1]"),
             (lambda: RigidBodyState(Pose.identity(), x), "twist[1]")]
    for call, name in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value).endswith(f"got {name} = {text}")


def test_joint_state_copies_its_inputs():
    # writes into the caller's arrays after construction leave the state
    # as it was, and the caller's arrays stay writable
    q, qd, qdd, qddd = (np.array([0.3, -0.2]) for _ in range(4))
    st = JointState(q, qd, qdd, qddd)
    for v in (q, qd, qdd, qddd):
        v[0] = 5.0
    for name in ("q", "qd", "qdd", "qddd"):
        assert getattr(st, name)[0] == 0.3
        assert not getattr(st, name).flags.writeable


# ------------------------------------------------------------- accelerations

def test_accelerations_trivials(rng):
    model = random_chain(rng, 3, tree=True)
    q = rng.normal(size=3)
    st = JointState(q, np.zeros(3), np.zeros(3))
    for rep in REPS4:
        assert np.allclose(accelerations(model, st, rep).accels, 0.0, atol=0.0)
    single = random_chain(rng, 1)
    st = JointState([0.4], [0.0], [1.0])
    cache = accelerations(single, st, "body")
    assert np.allclose(cache.accels[0], single.joints[0].screw_body, atol=1e-15)


def test_accelerations_match_finite_differences(rng):
    h = 1e-5
    worst = 0.0
    for trial in range(8):
        n = int(rng.integers(2, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd, qdd = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        st = JointState(q, qd, qdd)
        for rep in REPS4:
            acc = accelerations(model, st, rep).accels
            cp = twists(model, q + h * qd + 0.5 * h * h * qdd, qd + h * qdd, rep)
            cm = twists(model, q - h * qd + 0.5 * h * h * qdd, qd - h * qdd, rep)
            fd = (cp.twists - cm.twists) / (2 * h)
            worst = max(worst, np.abs(fd - acc).max())
    assert worst < 1e-7


def body_accel_matrix_form(model, q, qd, qdd):
    """Stacked body accelerations as J qdd - A a J qd, with
    a = blockdiag(qd_i ad_{X_i})."""
    n = model.n
    sj = JacobianOracle(model, q, "body")
    a = np.zeros((6 * n, 6 * n))
    for i in range(n):
        a[6 * i:6 * i + 6, 6 * i:6 * i + 6] = qd[i] * ad_matrix(model.joints[i].screw_body)
    vdot = sj.J @ np.asarray(qdd, float) - sj.A @ a @ sj.J @ np.asarray(qd, float)
    return vdot.reshape(n, 6)


def spatial_accel_matrix_form(model, q, qd, qdd):
    """Stacked spatial accelerations as J qdd + L b blockdiag(J_i) qd with
    L the lower block-triangular identity and b = blockdiag(ad_{V_i})."""
    n = model.n
    sj = JacobianOracle(model, q, "spatial")
    cache = twists(model, q, qd, "spatial")
    b = np.zeros((6 * n, 6 * n))
    diag_j = np.zeros((6 * n, n))
    L = np.zeros((6 * n, 6 * n))
    for i in range(n):
        b[6 * i:6 * i + 6, 6 * i:6 * i + 6] = ad_matrix(cache.twists[i])
        diag_j[6 * i:6 * i + 6, i] = sj.X[6 * i:6 * i + 6, i]
        for j in model.path(i):
            L[6 * i:6 * i + 6, 6 * j:6 * j + 6] = np.eye(6)
    vdot = sj.J @ np.asarray(qdd, float) + L @ b @ diag_j @ np.asarray(qd, float)
    return vdot.reshape(n, 6)


def test_acceleration_matrix_forms_match_recursions(rng):
    for trial in range(8):
        n = int(rng.integers(1, 6))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd, qdd = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        st = JointState(q, qd, qdd)
        assert np.allclose(body_accel_matrix_form(model, q, qd, qdd),
                           accelerations(model, st, "body").accels, atol=1e-12)
        assert np.allclose(spatial_accel_matrix_form(model, q, qd, qdd),
                           accelerations(model, st, "spatial").accels, atol=1e-12)


# -------------------------------------------------------------------- jerks

def _poly_state(q, qd, qdd, qddd, t):
    return JointState(q + t * qd + t * t * qdd / 2 + t**3 * qddd / 6,
                      qd + t * qdd + t * t * qddd / 2,
                      qdd + t * qddd)


def test_jerks_trivial():
    model = planar_2r_model()
    st = JointState(np.array([0.3, -0.2]), np.zeros(2), np.zeros(2), np.zeros(2))
    for rep in REPS4:
        assert np.allclose(jerks(model, st, rep).jerks, 0.0, atol=1e-14)


def test_jerks_match_finite_differences(rng):
    h = 1e-5
    worst = 0.0
    for trial in range(6):
        n = int(rng.integers(2, 6))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd, qdd, qddd = (rng.normal(size=n) for _ in range(4))
        st = JointState(q, qd, qdd, qddd)
        for rep in REPS3:
            jc = jerks(model, st, rep).jerks
            ap = accelerations(model, _poly_state(q, qd, qdd, qddd, h), rep).accels
            am = accelerations(model, _poly_state(q, qd, qdd, qddd, -h), rep).accels
            worst = max(worst, np.abs((ap - am) / (2 * h) - jc).max())
    assert worst < 1e-6


def test_jerks_match_finite_differences_on_long_chain():
    # n = 30 is affordable because the jerks are one stacked closed form
    model = _benchmark_chain(30)
    rng = np.random.default_rng(30)
    q, qd, qdd, qddd = (rng.normal(size=30) for _ in range(4))
    h = 1e-5
    for rep in REPS3:
        jc = jerks(model, JointState(q, qd, qdd, qddd), rep).jerks
        ap = accelerations(model, _poly_state(q, qd, qdd, qddd, h), rep).accels
        am = accelerations(model, _poly_state(q, qd, qdd, qddd, -h), rep).accels
        assert np.abs((ap - am) / (2 * h) - jc).max() < 1e-6 * max(1.0, np.abs(jc).max())


def test_jerk_representation_cross_agreement(rng):
    # conversion oracle: differentiate the exact body->spatial and
    # body->hybrid maps twice
    for trial in range(8):
        n = int(rng.integers(2, 6))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        st = JointState(*(rng.normal(size=n) for _ in range(4)))
        cb = jerks(model, st, "body")
        cs = jerks(model, st, "spatial")
        ch = jerks(model, st, "hybrid")
        for i in range(n):
            ad = adjoint(cb.poses[i])
            vs, vsd = cs.twists[i], cs.accels[i]
            # spatial accel is the plain transport of the body accel
            assert np.allclose(vsd, ad @ cb.accels[i], atol=1e-10)
            jerk_s = ad @ cb.jerks[i] + lie_bracket(vs, vsd)
            assert np.allclose(jerk_s, cs.jerks[i], atol=1e-10)
            adr = adjoint_rot(cb.poses[i].rot)
            om = screw(ch.twists[i][:3], np.zeros(3))
            omd = screw(ch.accels[i][:3], np.zeros(3))
            accel_h = adr @ cb.accels[i] + lie_bracket(om, ch.twists[i])
            assert np.allclose(accel_h, ch.accels[i], atol=1e-10)
            jerk_h = (adr @ cb.jerks[i] + lie_bracket(omd, ch.twists[i])
                      + 2.0 * lie_bracket(om, ch.accels[i])
                      - lie_bracket(om, lie_bracket(om, ch.twists[i])))
            assert np.allclose(jerk_h, ch.jerks[i], atol=1e-10)


def test_jerks_require_rates():
    model = planar_2r_model()
    with pytest.raises(ValueError):
        jerks(model, JointState(np.zeros(2), np.zeros(2), np.zeros(2)), "body")


# ---------------------------------------------------- jacobian derivatives

def test_jacobian_partial_domain_trivials(rng):
    model = random_chain(rng, 5)
    q = rng.normal(size=5)
    # body: independent of q_k for k <= j
    assert np.array_equal(jacobian_partial(model, q, "body", 4, 2, 2), np.zeros(6))
    assert np.array_equal(jacobian_partial(model, q, "body", 4, 2, 1), np.zeros(6))
    # spatial: independent of q_k for k >= j
    assert np.array_equal(jacobian_partial(model, q, "spatial", 4, 2, 2), np.zeros(6))
    assert np.array_equal(jacobian_partial(model, q, "spatial", 4, 2, 3), np.zeros(6))
    with pytest.raises(IndexError):
        jacobian_partial(model, q, "body", 0, 0, 7)


def test_jacobian_partial_off_tree_path_is_zero(rng):
    model = random_chain(rng, 7, tree=True)
    q = rng.normal(size=7)
    off = [(i, j, k) for i in range(7) for j in range(7) for k in range(7)
           if not (model.on_path(j, i) and model.on_path(k, i))]
    for i, j, k in off[:40]:
        for rep in ("body", "hybrid"):
            assert np.array_equal(jacobian_partial(model, q, rep, i, j, k),
                                  np.zeros(6))


def test_jacobian_partial_first_order_fd(rng):
    h = 1e-5
    worst = 0.0
    for trial in range(6):
        n = int(rng.integers(2, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q = rng.normal(size=n)
        for rep in REPS3:
            for _ in range(12):
                i, j, k = (int(v) for v in rng.integers(0, n, size=3))
                an = jacobian_partial(model, q, rep, i, j, k)
                e = np.zeros(n)
                e[k] = 1.0
                jp = jacobian(model, q + h * e, rep)
                jm = jacobian(model, q - h * e, rep)
                row = j if rep == "spatial" else i
                fd = (jp.column(row, j) - jm.column(row, j)) / (2 * h)
                worst = max(worst, np.abs(an - fd).max())
    assert worst < 1e-7


def test_jacobian_partial_second_order_fd(rng):
    h = 1e-4
    worst = 0.0
    for trial in range(4):
        n = int(rng.integers(2, 6))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q = rng.normal(size=n)
        for rep in ("body", "spatial"):
            for _ in range(10):
                i, j, k, r = (int(v) for v in rng.integers(0, n, size=4))
                an = jacobian_partial_n(model, q, rep, i, j, (k, r))
                e = np.zeros(n)
                e[r] = 1.0
                fd = (jacobian_partial(model, q + h * e, rep, i, j, k)
                      - jacobian_partial(model, q - h * e, rep, i, j, k)) / (2 * h)
                worst = max(worst, np.abs(an - fd).max())
        for _ in range(10):
            i, j, r = (int(v) for v in rng.integers(0, n, size=3))
            k = int(rng.integers(j, n))
            an = hybrid_jacobian_partial2(model, q, i, j, k, r)
            e = np.zeros(n)
            e[r] = 1.0
            fd = (jacobian_partial(model, q + h * e, "hybrid", i, j, k)
                  - jacobian_partial(model, q - h * e, "hybrid", i, j, k)) / (2 * h)
            worst = max(worst, np.abs(an - fd).max())
    assert worst < 1e-6


def test_jacobian_partial_third_order_fd(rng):
    h = 1e-3
    worst = 0.0
    for trial in range(3):
        n = int(rng.integers(3, 6))
        model = random_chain(rng, n)
        q = rng.normal(size=n)
        for rep in ("body", "spatial"):
            for _ in range(8):
                i, j = (int(v) for v in rng.integers(0, n, size=2))
                k, r, s = sorted(int(v) for v in rng.integers(0, n, size=3))
                an = jacobian_partial_n(model, q, rep, i, j, (k, r, s))
                e = np.zeros(n)
                e[s] = 1.0
                fd = (jacobian_partial_n(model, q + h * e, rep, i, j, (k, r))
                      - jacobian_partial_n(model, q - h * e, rep, i, j, (k, r))
                      ) / (2 * h)
                worst = max(worst, np.abs(an - fd).max())
    assert worst < 1e-4


def test_jacobian_partial_n_second_order_matches_case_split(rng):
    # the sorted nested-bracket form reproduces the two-case second
    # derivative formulas
    model = random_chain(rng, 5)
    q = rng.normal(size=5)
    sj = jacobian(model, q, "body")
    js = jacobian(model, q, "spatial")
    i = 4
    for j in range(5):
        for k in range(5):
            for r in range(5):
                got = jacobian_partial_n(model, q, "body", i, j, (k, r))
                lo, hi = min(k, r), max(k, r)
                if j < lo:
                    expect = lie_bracket(
                        lie_bracket(sj.column(i, j), sj.column(i, lo)),
                        sj.column(i, hi))
                else:
                    expect = np.zeros(6)
                assert np.allclose(got, expect, atol=1e-12)
                got_s = jacobian_partial_n(model, q, "spatial", i, j, (k, r))
                if hi < j:
                    expect_s = lie_bracket(
                        js.column(lo, lo),
                        lie_bracket(js.column(hi, hi), js.column(j, j)))
                else:
                    expect_s = np.zeros(6)
                assert np.allclose(got_s, expect_s, atol=1e-12)


def test_jacobian_partial_n_rejects_hybrid(rng):
    model = random_chain(rng, 3)
    with pytest.raises(ValueError):
        jacobian_partial_n(model, np.zeros(3), "hybrid", 2, 0, (1, 2))


def test_jacobian_partials_match_central_differences(rng):
    # every entry D[i, :, j, k] of the three tables against central
    # differences of the whole Jacobian in q_k, on one 6-body tree
    n, h = 6, 1e-5
    model = random_chain(rng, n, tree=True)
    q = rng.normal(size=n)
    for rep in REPS3:
        fd = np.zeros((n, 6, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd[..., k] = (jacobian(model, q + e, rep).J
                          - jacobian(model, q - e, rep).J).reshape(n, 6, n) / (2 * h)
        assert np.abs(jacobian_partials(model, q, rep) - fd).max() < 1e-7


def test_single_jacobian_partials_never_build_the_table(rng, monkeypatch):
    # one entry brackets two Jacobian columns: O(n^2), not the O(n^3) table
    import screwchain.kinematics as kin

    def refuse(*args, **kwargs):
        raise AssertionError("a single partial built the bracket table")

    model = random_chain(rng, 5, tree=True)
    q = rng.normal(size=5)
    monkeypatch.setattr(kin, "_bracket_table", refuse)
    for rep in REPS3:
        jacobian_partial(model, q, rep, 4, 1, 3)
    hybrid_jacobian_partial2(model, q, 4, model.path(4)[0], 4, 4)
    with pytest.raises(AssertionError):
        jacobian_partials(model, q, "body")


def test_time_derivative_of_spatial_jacobian(rng):
    # Jdot_j = [V_j, J_j] along trajectories
    h = 1e-6
    worst = 0.0
    for _ in range(6):
        n = int(rng.integers(2, 7))
        model = random_chain(rng, n)
        q, qd = rng.normal(size=n), rng.normal(size=n)
        cache = twists(model, q, qd, "spatial")
        sj = jacobian(model, q, "spatial")
        jp = jacobian(model, q + h * qd, "spatial")
        jm = jacobian(model, q - h * qd, "spatial")
        for j in range(n):
            fd = (jp.column(j, j) - jm.column(j, j)) / (2 * h)
            an = lie_bracket(cache.twists[j], sj.column(j, j))
            worst = max(worst, np.abs(an - fd).max())
    assert worst < 1e-7


# ----------------------------------------------------------------- accel_ik

def test_accel_ik_trivials(rng):
    model = random_chain(rng, 3)
    q = rng.normal(size=3)
    cache = accelerations(model, JointState(q, np.zeros(3), np.zeros(3)), "body")
    assert np.allclose(accel_ik(model, q, cache.twists, cache.accels), 0.0,
                       atol=1e-14)
    single = random_chain(rng, 1)
    st = JointState([0.2], [0.7], [-1.3])
    cache = accelerations(single, st, "body")
    assert np.allclose(accel_ik(single, [0.2], cache.twists, cache.accels),
                       [-1.3], atol=1e-12)


def test_accel_ik_round_trip(rng):
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(1, 8))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd, qdd = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        cache = accelerations(model, JointState(q, qd, qdd), "body")
        worst = max(worst,
                    np.abs(accel_ik(model, q, cache.twists, cache.accels)
                           - qdd).max())
    assert worst < 1e-10
