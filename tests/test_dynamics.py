import numpy as np
import pytest

from screwchain import dynamics, kinematics, se3
from screwchain.cli import _benchmark_chain
from screwchain.dynamics import (
    christoffel, convert_wrench, coriolis_matrix, fdyn, gravity_potential,
    gravity_wrenches, idyn, kinetic_energy, mass_matrix, momentum_rhs,
    ne_wrench, ne_wrench_arbitrary, predict_op_counts, projection_eom,
    spatial_inertia_of, spatial_momenta,
)
from screwchain.kinematics import (
    JointState, Twist, accelerations, fk, jacobian, jerks, twists,
)
from screwchain.model import (
    BodyModel, ChainModel, JointModel, SpatialInertia, load_model, spatial_inertia_body,
)
from screwchain.samples import sample_model_path
from screwchain.se3 import Pose, ad_matrix, adjoint, adjoint_rot, lie_bracket, screw

from conftest import (
    planar_2r_lagrangian_torque, planar_2r_model, rand_inertia, rand_rotation,
    random_chain,
)


def physical_wrenches(rng, model, q):
    """One physical per-body wrench set expressed in all three reps."""
    poses = fk(model, q)
    wb = rng.normal(size=(model.n, 6))
    out = {"body": wb}
    for rep in ("spatial", "hybrid"):
        out[rep] = np.array([convert_wrench(wb[i], "body", rep, poses[i])
                             for i in range(model.n)])
    return out


# ---------------------------------------------------------------- ne_wrench

def test_ne_wrench_zero_motion(rng):
    m = spatial_inertia_body(BodyModel(2.0, rng.normal(size=3) * 0.3,
                                       rand_inertia(rng)))
    for rep in ("body", "spatial", "hybrid"):
        w = ne_wrench(np.zeros(6), np.zeros(6), m.matrix, rep)
        assert np.array_equal(w, np.zeros(6))


def test_ne_wrench_principal_spin():
    theta = np.diag([0.2, 0.3, 0.4])
    body = BodyModel(1.5, [0, 0, 0], theta)
    m = spatial_inertia_body(body).matrix
    alpha = 2.5
    w = ne_wrench(np.zeros(6), screw([0, 0, alpha], [0, 0, 0]), m, "body")
    assert np.allclose(w, screw([0, 0, theta[2, 2] * alpha], [0, 0, 0]),
                       atol=1e-14)


def test_ne_wrench_hybrid_com_decoupled(rng):
    # force is m rddot regardless of the angular state
    theta = rand_inertia(rng)
    mass = 1.7
    mh = np.zeros((6, 6))
    mh[:3, :3] = theta
    mh[3:, 3:] = mass * np.eye(3)
    rdd = rng.normal(size=3)
    for _ in range(10):
        v = rng.normal(size=6)
        w = ne_wrench(v, screw(rng.normal(size=3), rdd), mh, "hybrid",
                      com_frame=True)
        assert np.allclose(w[3:], mass * rdd, atol=1e-13)


def test_ne_wrench_com_fast_paths_match_general(rng):
    for _ in range(30):
        body = BodyModel(rng.uniform(0.5, 3), np.zeros(3), rand_inertia(rng))
        m = spatial_inertia_body(body).matrix
        v, vd = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(ne_wrench(v, vd, m, "body"),
                           ne_wrench(v, vd, m, "body", com_frame=True),
                           atol=1e-13)
        assert np.allclose(ne_wrench(v, vd, m, "hybrid"),
                           ne_wrench(v, vd, m, "hybrid", com_frame=True),
                           atol=1e-13)


def test_ne_wrench_rejects_rep_mismatch(rng):
    m = SpatialInertia(np.eye(6), "body")
    with pytest.raises(ValueError):
        ne_wrench(np.zeros(6), np.zeros(6), m, "spatial")
    t = Twist(np.zeros(6), "hybrid", 0)
    with pytest.raises(ValueError):
        ne_wrench(t, np.zeros(6), np.eye(6), "body")


# ----------------------------------------------------- arbitrary frames

def test_ne_wrench_arbitrary_special_cases(rng):
    for trial in range(6):
        n = int(rng.integers(2, 6))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        st = JointState(*(rng.normal(size=n) for _ in range(3)))
        cb = accelerations(model, st, "body")
        ch = accelerations(model, st, "hybrid")
        cs = accelerations(model, st, "spatial")
        for i in range(n):
            mb = model.inertia_body(i)
            assert np.allclose(
                ne_wrench_arbitrary(model, st, i, j=i, k=i),
                ne_wrench(cb.twists[i], cb.accels[i], mb, "body"), atol=1e-11)
            adr = adjoint_rot(cb.poses[i].rot)
            mh = adr @ mb @ adr.T
            assert np.allclose(
                ne_wrench_arbitrary(model, st, i, j=i, k=None),
                ne_wrench(ch.twists[i], ch.accels[i], mh, "hybrid"), atol=1e-11)
            ms = spatial_inertia_of(model, cb.poses, i)
            assert np.allclose(
                ne_wrench_arbitrary(model, st, i, j=None, k=None),
                ne_wrench(cs.twists[i], cs.accels[i], ms, "spatial"), atol=1e-11)


def test_per_body_helpers_reject_wrong_pose_counts_and_indices():
    # one pose for six bodies, and negative body indices, used to return
    # rows of the wrong pose or another body's values (or fail with an
    # unrelated reshape or index error)
    model = load_model(sample_model_path("arm_6r"))
    q = np.linspace(0.1, 0.6, 6)
    poses = fk(model, q)
    for rep in ("body", "spatial", "hybrid"):
        with pytest.raises(ValueError, match="gravity_wrenches: expected 6 poses, got 1"):
            gravity_wrenches(model, poses[:1], rep)
    with pytest.raises(IndexError, match="spatial_inertia_of: index -1 out of range"):
        spatial_inertia_of(model, poses, -1)
    st = JointState(q, q, q)
    for args in ((-1,), (2, -1, -1), (2, None, -1), (6,), (2, 6, None)):
        with pytest.raises(IndexError, match="ne_wrench_arbitrary: index (-1|6) out of range"):
            ne_wrench_arbitrary(model, st, *args)


def wrench_to_spatial(w, j, k, poses):
    """Map a wrench measured at frame j, resolved in frame k, back to the
    spatial representation (inverse transport of ne_wrench_arbitrary;
    None selects the inertial frame)."""
    cj = Pose.identity() if j is None else poses[j]
    ck = Pose.identity() if k is None else poses[k]
    wj = adjoint_rot(ck.rot.T @ cj.rot).T @ np.asarray(w, dtype=float)
    return np.linalg.solve(adjoint(cj).T, wj)


def test_ne_wrench_arbitrary_transports_to_spatial(rng):
    worst = 0.0
    for trial in range(6):
        n = int(rng.integers(2, 6))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        st = JointState(*(rng.normal(size=n) for _ in range(3)))
        cs = accelerations(model, st, "spatial")
        for _ in range(6):
            i, j, k = (int(v) for v in rng.integers(0, n, size=3))
            ws = ne_wrench(cs.twists[i], cs.accels[i],
                           spatial_inertia_of(model, cs.poses, i), "spatial")
            w = ne_wrench_arbitrary(model, st, i, j=j, k=k)
            back = wrench_to_spatial(w, j, k, cs.poses)
            worst = max(worst, np.abs(back - ws).max())
    assert worst < 1e-11


# --------------------------------------------------------------------- idyn

def test_idyn_static_no_loads(rng):
    model = random_chain(rng, 4, tree=True)
    q = rng.normal(size=4)
    tau = idyn(model, q, np.zeros(4), np.zeros(4), "body", gravity=False)
    assert np.allclose(tau, 0.0, atol=0.0)


def test_idyn_single_revolute_principal_axis():
    theta = np.diag([0.3, 0.35, 0.5])
    model = ChainModel(
        [BodyModel(2.0, [0, 0, 0], theta)],
        [JointModel("revolute", axis=[0, 0, 1], point=[0, 0, 0])],
        [-1], gravity=(0, 0, 0))
    alpha = 1.7
    tau = idyn(model, [0.4], [0.0], [alpha], "body")
    assert np.allclose(tau, [theta[2, 2] * alpha], atol=1e-14)


def test_idyn_cross_representation_agreement(rng):
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(1, 9))
        model = random_chain(rng, n, tree=(trial % 3 == 0))
        q, qd, qdd = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        ws = physical_wrenches(rng, model, q)
        results = [idyn(model, q, qd, qdd, rep, applied=ws[rep])
                   for rep in ("body", "spatial", "hybrid")]
        scale = max(1.0, max(np.abs(r).max() for r in results))
        for a in range(3):
            for b in range(a + 1, 3):
                worst = max(worst, np.abs(results[a] - results[b]).max() / scale)
    assert worst < 1e-9


def test_idyn_mixed_routes_through_hybrid(rng):
    model = random_chain(rng, 4)
    q, qd, qdd = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    poses = fk(model, q)
    wh = rng.normal(size=(4, 6))
    # mixed wrench: body-fixed torque part, inertial force part
    wm = wh.copy()
    for i in range(4):
        wm[i, :3] = poses[i].rot.T @ wh[i, :3]
    assert np.allclose(idyn(model, q, qd, qdd, "mixed", applied=wm),
                       idyn(model, q, qd, qdd, "hybrid", applied=wh), atol=1e-11)


def test_idyn_2r_matches_lagrangian_oracle(rng):
    model = planar_2r_model()
    worst = 0.0
    for _ in range(100):
        q, qd, qdd = (rng.normal(size=2) for _ in range(3))
        tau = idyn(model, q, qd, qdd, "body")
        worst = max(worst, np.abs(tau - planar_2r_lagrangian_torque(q, qd, qdd)).max())
    assert worst < 1e-9


def test_idyn_gravity_equals_potential_gradient(rng):
    # static holding torques equal the finite-difference gradient of U
    model = random_chain(rng, 5, tree=True)
    q = rng.normal(size=5)
    tau = idyn(model, q, np.zeros(5), np.zeros(5), "body")
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = 1.0
        dU = (gravity_potential(model, q + h * e)
              - gravity_potential(model, q - h * e)) / (2 * h)
        assert abs(tau[j] - dU) < 1e-7


def test_transmitted_wrench_reciprocity(rng):
    # at a consistent unactuated state the wrench transmitted through each
    # joint is reciprocal to the joint screw (zero power through the DOF)
    for trial in range(6):
        n = int(rng.integers(2, 6))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd = rng.normal(size=n), rng.normal(size=n)
        qdd = fdyn(model, q, qd)
        res = idyn(model, q, qd, qdd, "body", full=True)
        for i in range(n):
            x = model.joints[i].screw_body
            # wrench as a screw has (force, torque) order for the pairing
            w_as_screw = screw(res.wrenches[i][3:], res.wrenches[i][:3])
            assert abs(se3.reciprocal_product(x, w_as_screw)) < 1e-10


# ------------------------------------------------------------- EOM matrices

def test_mass_matrix_symmetric_positive_definite(rng):
    for trial in range(10):
        n = int(rng.integers(1, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        m = mass_matrix(model, rng.normal(size=n))
        assert np.abs(m - m.T).max() < 1e-12
        np.linalg.cholesky(m)


def test_mass_matrix_column_probe(rng):
    worst = 0.0
    for trial in range(8):
        n = int(rng.integers(1, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q = rng.normal(size=n)
        m = mass_matrix(model, q)
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            col = idyn(model, q, np.zeros(n), e, "body", gravity=False)
            worst = max(worst, np.abs(col - m[:, j]).max())
    assert worst < 1e-10


def test_mass_matrix_single_revolute_parallel_axis():
    d, mass, izz = 0.8, 1.3, 0.07
    model = ChainModel(
        [BodyModel(mass, [d, 0, 0], np.diag([0.04, 0.04, izz]))],
        [JointModel("revolute", axis=[0, 0, 1], point=[0, 0, 0])],
        [-1])
    m = mass_matrix(model, [0.3])
    assert np.allclose(m, [[izz + mass * d * d]], atol=1e-13)


def test_coriolis_matrix_against_idyn(rng):
    worst = 0.0
    for trial in range(8):
        n = int(rng.integers(1, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd = rng.normal(size=n), rng.normal(size=n)
        c = coriolis_matrix(model, q, qd)
        cor = idyn(model, q, qd, np.zeros(n), "body", gravity=False)
        worst = max(worst, np.abs(c @ qd - cor).max())
        assert np.allclose(coriolis_matrix(model, q, np.zeros(n)), 0.0, atol=1e-13)
    assert worst < 1e-10


def test_coriolis_single_revolute_is_zero(rng):
    model = random_chain(rng, 1, kinds=("revolute",))
    c = coriolis_matrix(model, rng.normal(size=1), rng.normal(size=1))
    assert np.allclose(c, 0.0, atol=1e-13)


def test_power_balance_skew_form(rng):
    # qd^T (Mdot - 2C) qd = 0 with Mdot by finite differences
    h = 1e-4
    worst = 0.0
    for trial in range(8):
        n = int(rng.integers(2, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q = rng.normal(size=n)
        qd = rng.normal(size=n) * 0.7

        def central(step):
            return (mass_matrix(model, q + step * qd)
                    - mass_matrix(model, q - step * qd)) / (2 * step)

        mdot = (4.0 * central(h / 2) - central(h)) / 3.0  # Richardson
        c = coriolis_matrix(model, q, qd)
        worst = max(worst, abs(qd @ (mdot - 2 * c) @ qd))
    assert worst < 1e-9


def test_rigid_body_skew_symmetry(rng):
    # Mdot^s - 2 C^s with C^s = -ad^T M^s is skew symmetric
    worst = 0.0
    for _ in range(50):
        body = BodyModel(rng.uniform(0.5, 3), rng.normal(size=3) * 0.4,
                         rand_inertia(rng))
        pose = Pose(rand_rotation(rng), rng.normal(size=3))
        ad_inv = adjoint(pose.inverse())
        ms = ad_inv.T @ spatial_inertia_body(body).matrix @ ad_inv
        v = rng.normal(size=6)
        msdot = -ad_matrix(v).T @ ms - ms @ ad_matrix(v)
        cs = -ad_matrix(v).T @ ms
        mat = msdot - 2 * cs
        worst = max(worst, np.abs(mat + mat.T).max())
    assert worst < 1e-11


def test_kinetic_energy_rate_equals_power(rng):
    # d/dt (qd^T M qd / 2) = qd^T Q along forward-dynamics motion
    model = random_chain(rng, 4)
    q, qd = rng.normal(size=4), rng.normal(size=4)
    tau = rng.normal(size=4)
    qdd = fdyn(model, q, qd, tau, gravity=True)
    h = 1e-6
    tp = kinetic_energy(model, q + h * qd + 0.5 * h * h * qdd, qd + h * qdd)
    tm = kinetic_energy(model, q - h * qd + 0.5 * h * h * qdd, qd - h * qdd)
    rate = (tp - tm) / (2 * h)
    grav = idyn(model, q, np.zeros(4), np.zeros(4), "body")  # potential gradient
    assert abs(rate - qd @ (tau - grav)) < 1e-6


# -------------------------------------------------------------- christoffel

def test_christoffel_trivials(rng):
    model = random_chain(rng, 1)
    assert np.allclose(christoffel(model, rng.normal(size=1)), 0.0, atol=1e-14)


def test_christoffel_symmetry_and_variants(rng):
    worst_sym, worst_var = 0.0, 0.0
    for trial in range(8):
        n = int(rng.integers(2, 6))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q = rng.normal(size=n)
        g_std = christoffel(model, q, "standard")
        g_bin = christoffel(model, q, "binet")
        worst_sym = max(worst_sym,
                        np.abs(g_std - np.swapaxes(g_std, 1, 2)).max())
        worst_var = max(worst_var, np.abs(g_std - g_bin).max())
    assert worst_sym < 1e-12
    assert worst_var < 1e-10


def test_christoffel_matches_mass_matrix_partials(rng):
    h = 1e-5
    worst = 0.0
    for trial in range(3):
        n = int(rng.integers(2, 5))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q = rng.normal(size=n)
        gamma = christoffel(model, q)
        dm = np.zeros((n, n, n))  # dm[l] = dM/dq_l
        for l in range(n):
            e = np.zeros(n)
            e[l] = 1.0
            dm[l] = (mass_matrix(model, q + h * e)
                     - mass_matrix(model, q - h * e)) / (2 * h)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    fd = 0.5 * (dm[j][i, k] + dm[k][i, j] - dm[i][j, k])
                    worst = max(worst, abs(gamma[i, j, k] - fd))
    assert worst < 1e-6


def test_christoffel_on_30_joint_chain():
    # central differences of M (h = 1e-5) differ from Gamma by 9e-11 of
    # the largest entry here; the two variants agree to 9e-16 of it
    n, h = 30, 1e-5
    model = _benchmark_chain(n)
    q = np.random.default_rng(30).normal(size=n)
    gamma = christoffel(model, q)
    scale = np.abs(gamma).max()
    dm = np.array([(mass_matrix(model, q + h * e) - mass_matrix(model, q - h * e)) / (2 * h)
                   for e in np.eye(n)])  # dm[l] = dM/dq_l
    fd = 0.5 * (dm.transpose(1, 0, 2) + dm.transpose(1, 2, 0) - dm)
    assert np.abs(gamma - fd).max() <= 1e-9 * scale
    assert np.abs(christoffel(model, q, "binet") - gamma).max() <= 1e-12 * scale


def test_christoffel_contraction_equals_coriolis(rng):
    worst = 0.0
    for _ in range(6):
        n = int(rng.integers(2, 6))
        model = random_chain(rng, n)
        q, qd = rng.normal(size=n), rng.normal(size=n)
        gamma = christoffel(model, q)
        c = coriolis_matrix(model, q, qd)
        worst = max(worst,
                    np.abs(np.einsum("ijk,j,k->i", gamma, qd, qd) - c @ qd).max())
    assert worst < 1e-9


# ---------------------------------------------------------- projection / fdyn

def test_projection_eom_equals_idyn(rng):
    worst = 0.0
    for trial in range(8):
        n = int(rng.integers(1, 7))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd, qdd = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        ws = physical_wrenches(rng, model, q)
        res = projection_eom(model, q, qd, qdd, applied=ws["body"])
        tau = idyn(model, q, qd, qdd, "body", applied=ws["body"])
        worst = max(worst, np.abs(res - tau).max())
    assert worst < 1e-10


def test_projection_eom_consistent_state_residual(rng):
    for _ in range(6):
        n = int(rng.integers(1, 6))
        model = random_chain(rng, n)
        q, qd = rng.normal(size=n), rng.normal(size=n)
        wb = rng.normal(size=(n, 6))
        qdd = fdyn(model, q, qd, tau=None, applied=wb)
        res = projection_eom(model, q, qd, qdd, applied=wb)
        assert np.abs(res).max() < 1e-9


def test_projection_eom_static_equals_minus_applied(rng):
    model = random_chain(rng, 3, gravity=(0, 0, 0))
    q = rng.normal(size=3)
    wb = rng.normal(size=(3, 6))
    res = projection_eom(model, q, np.zeros(3), np.zeros(3), applied=wb,
                         gravity=False)
    sj = jacobian(model, q, "body")
    assert np.allclose(res, -sj.J.T @ wb.reshape(-1), atol=1e-12)


def test_fdyn_inverse_round_trip(rng):
    worst = 0.0
    for trial in range(12):
        n = int(rng.integers(1, 8))
        model = random_chain(rng, n, tree=(trial % 2 == 0))
        q, qd = rng.normal(size=n), rng.normal(size=n)
        tau = rng.normal(size=n)
        wb = rng.normal(size=(n, 6))
        qdd = fdyn(model, q, qd, tau, applied=wb)
        worst = max(worst, np.abs(idyn(model, q, qd, qdd, "body", applied=wb)
                                  - tau).max())
    assert worst < 1e-9


def test_fdyn_inverse_round_trip_on_30_joint_chain():
    # the solves by the inverse Cholesky factor keep idyn(fdyn(tau)) = tau
    # on the longest benchmark chain
    model = _benchmark_chain(30)
    for seed in range(20):
        q, qd, tau = np.random.default_rng(seed).normal(size=(3, 30))
        qdd = fdyn(model, q, qd, tau)
        assert np.abs(idyn(model, q, qd, qdd) - tau).max() <= 1e-9 * np.abs(tau).max()


def test_solves_reject_non_finite_input(rng):
    # numpy carries NaN through a solve silently; the SPD solve must not
    model = random_chain(rng, 3)
    q, qd = rng.normal(size=3), rng.normal(size=3)
    with pytest.raises(ValueError):
        fdyn(model, q, qd, tau=[0.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        fdyn(model, q, qd, tau=[np.inf, 0.0, 0.0])
    pis = spatial_momenta(model, q, qd)
    pis[1, 2] = np.nan
    with pytest.raises(ValueError):
        momentum_rhs(model, q, pis)


NON_FINITE_Q_ENTRY_POINTS = {
    "fk": lambda model, q: fk(model, q),
    "twists": lambda model, q: twists(model, q, np.zeros(2)),
    "jacobian": lambda model, q: jacobian(model, q),
    "idyn": lambda model, q: idyn(model, q, np.zeros(2), np.zeros(2)),
    "fdyn": lambda model, q: fdyn(model, q, np.zeros(2)),
    "mass_matrix": lambda model, q: mass_matrix(model, q),
    "momentum_rhs": lambda model, q: momentum_rhs(model, q, np.zeros((2, 6))),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", list(NON_FINITE_Q_ENTRY_POINTS))
def test_non_finite_q_is_rejected_as_such(entry, value):
    with pytest.raises(ValueError, match="q must be finite"):
        NON_FINITE_Q_ENTRY_POINTS[entry](planar_2r_model(), [0.3, value])


# entry point -> (call on a dict of q and rates, the rates it reads)
NON_FINITE_RATE_ENTRY_POINTS = {
    **{f"idyn_{rep}": (lambda model, r, rep=rep: idyn(model, r["q"], r["qd"], r["qdd"], rep),
                       ("qd", "qdd")) for rep in ("body", "spatial", "hybrid", "mixed")},
    "twists": (lambda model, r: twists(model, r["q"], r["qd"]), ("qd",)),
    "accelerations": (lambda model, r: accelerations(model, JointState(r["q"], r["qd"], r["qdd"])),
                      ("qd", "qdd")),
    "jerks": (lambda model, r: jerks(model, JointState(**r)), ("qd", "qdd", "qddd")),
    "projection_eom": (lambda model, r: projection_eom(model, r["q"], r["qd"], r["qdd"]),
                       ("qd", "qdd")),
    "kinetic_energy": (lambda model, r: kinetic_energy(model, r["q"], r["qd"]), ("qd",)),
    "spatial_momenta": (lambda model, r: spatial_momenta(model, r["q"], r["qd"]), ("qd",)),
    "coriolis_matrix": (lambda model, r: coriolis_matrix(model, r["q"], r["qd"]), ("qd",)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry, field", [(entry, field) for entry, (_, fields)
                                          in NON_FINITE_RATE_ENTRY_POINTS.items()
                                          for field in fields])
def test_non_finite_rate_is_rejected_as_such(entry, field, value):
    # a non-finite rate raises, naming the field and its first bad index,
    # rather than giving a silent vector of NaNs
    rates = {name: np.array([0.3, -0.2]) for name in ("q", "qd", "qdd", "qddd")}
    rates[field][1] = value
    call = NON_FINITE_RATE_ENTRY_POINTS[entry][0]
    with pytest.raises(ValueError, match=rf"{field} must be finite, got {field}\[1\]"):
        call(planar_2r_model(), rates)


@pytest.mark.parametrize("entry", ["kinetic_energy", "spatial_momenta", "coriolis_matrix"])
def test_qd_of_another_size_is_rejected_by_name(entry):
    # the qd of these three calls is checked where it enters, not by a
    # product deep inside that fails with numpy's message
    call = NON_FINITE_RATE_ENTRY_POINTS[entry][0]
    with pytest.raises(ValueError, match=rf"^{entry}: qd must have 2 entries, got 3$"):
        call(planar_2r_model(), {"q": np.zeros(2), "qd": np.zeros(3)})


def test_reused_configuration_cannot_go_stale(rng):
    # fdyn keeps nothing between calls: at (A, q), (B, q), then (B, q
    # written in place) it must each time equal a pass built afresh; so
    # must fdyn after the caller writes into the mass matrix it was handed
    a, b = random_chain(rng, 4, tree=True), random_chain(rng, 4, tree=True)
    q, qd, tau = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)

    def fresh(model):
        return dynamics._Configuration(model, q).accel(qd, tau, None, True)[0]

    assert np.array_equal(fdyn(a, q, qd, tau), fresh(a))
    assert np.array_equal(fdyn(b, q, qd, tau), fresh(b))
    assert not np.array_equal(fresh(a), fresh(b))
    before = fresh(b)
    q[2] += 0.25
    assert np.array_equal(fdyn(b, q, qd, tau), fresh(b))
    assert not np.array_equal(fresh(b), before)
    m = mass_matrix(b, q)
    m[:] = np.eye(4)
    assert np.array_equal(fdyn(b, q, qd, tau), fresh(b))

    # another qd, tau, applied or gravity must give a solve of its own,
    # also when the caller's array was written in place
    wb = rng.normal(size=(4, 6))
    kept = fdyn(b, q, qd, tau)
    for args in ((qd + 1e-3, tau, None, True), (qd, tau + 1e-3, None, True),
                 (qd, tau, wb, True), (qd, tau, None, False)):
        expect = dynamics._Configuration(b, q).accel(*args)[0]
        assert np.array_equal(fdyn(b, q, *args), expect)
        assert not np.array_equal(expect, kept)
    for arr in (qd, tau, wb):
        before = fdyn(b, q, qd, tau, wb)
        arr[0] += 0.5
        after = fdyn(b, q, qd, tau, wb)
        fresh_solve = dynamics._Configuration(b, q).accel(qd, tau, wb, True)[0]
        assert np.array_equal(after, fresh_solve)
        assert not np.array_equal(after, before)
    # writing into what fdyn returned changes no later call
    out = fdyn(b, q, qd, tau)
    expect = out.copy()
    out[:] = 0.0
    assert np.array_equal(fdyn(b, q, qd, tau), expect)


def test_stacked_configuration_pass_equals_its_rows(rng):
    # FK and the configuration pass over an (m, n) or (2, 3, n) stack of
    # configurations give the calls made row by row, byte for byte: poses,
    # relative poses, screws, inertias, pseudo-inertias, gravity loads,
    # mass matrices and Ic_k js_k, on trees with every joint kind and
    # non-identity reference poses, and on the 30-joint benchmark chain
    def same(a, b):
        return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()

    for n in (1, 3, 7, 12, 30):
        if n == 30:  # the longest walk, its one-sample ndarray.dot against the batched @
            model = _benchmark_chain(n)
        else:
            model = random_chain(rng, n, tree=True)
            while len({joint.kind for joint in model.joints}) < min(n, 3):
                model = random_chain(rng, n, tree=True)
            assert not np.array_equal(model.bodies[-1].ref_pose.matrix(), np.eye(4))
        for lead in ((9,), (2, 3)):
            qs = rng.normal(size=lead + (n,)) * 2.0
            absolute, relative = kinematics._fk_stacks(model, qs)
            cfg = dynamics._Configuration(model, qs)
            stacked = (absolute.mat, relative.mat, cfg.frames.poses.mat, cfg.frames.screws,
                       cfg.frames.inertias, cfg.frames.pseudo, cfg.frames.gravity, cfg.mass,
                       cfg.icjs)
            for idx in np.ndindex(lead):
                row_absolute, row_relative = kinematics._fk_stacks(model, qs[idx])
                row = dynamics._Configuration(model, qs[idx])
                rows = (row_absolute.mat, row_relative.mat, row.frames.poses.mat,
                        row.frames.screws, row.frames.inertias, row.frames.pseudo,
                        row.frames.gravity, row.mass, row.icjs)
                for k, (got, want) in enumerate(zip(stacked, rows)):
                    assert same(got[idx], np.ascontiguousarray(want)), (n, lead, idx, k)


@pytest.mark.parametrize("shape", [(1, 4), (4, 1)])
def test_one_sample_calls_read_q_of_any_shape(rng, shape):
    # n numbers in any shape are one configuration, as a vector is: a
    # (1, n) q is not a stack of one sample for the public calls
    model = random_chain(rng, 4, tree=True)
    q, qd, qdd, qddd, tau = rng.normal(size=(5, 4))
    pis, v = rng.normal(size=(2, 4, 6))
    calls = {
        "twists": lambda q: twists(model, q, qd, "hybrid").twists,
        "accelerations": lambda q: accelerations(model, JointState(q, qd, qdd), "body").accels,
        "jerks": lambda q: jerks(model, JointState(q, qd, qdd, qddd), "mixed").jerks,
        "idyn": lambda q: idyn(model, q, qd, qdd, "hybrid"),
        "projection_eom": lambda q: projection_eom(model, q, qd, qdd),
        "fk": lambda q: [p.matrix() for p in fk(model, q)],
        "fk_body_form": lambda q: [p.matrix() for p in kinematics.fk_body_form(model, q)[1]],
        "jacobian": lambda q: jacobian(model, q, "hybrid").J,
        "accel_ik": lambda q: kinematics.accel_ik(model, q, v, v),
        "mass_matrix": lambda q: mass_matrix(model, q),
        "kinetic_energy": lambda q: kinetic_energy(model, q, qd),
        "gravity_potential": lambda q: gravity_potential(model, q),
        "fdyn": lambda q: fdyn(model, q, qd, tau),
        "spatial_momenta": lambda q: spatial_momenta(model, q, qd),
        "momentum_rhs": lambda q: np.concatenate([a.ravel() for a in
                                                  momentum_rhs(model, q, pis, tau)]),
        "coriolis_matrix": lambda q: coriolis_matrix(model, q, qd),
        "christoffel": lambda q: christoffel(model, q),
    }
    for name, call in calls.items():
        want, got = call(q), call(q.reshape(shape))
        assert np.array_equal(np.shape(got), np.shape(want)), name
        assert np.array_equal(np.asarray(got, dtype=float), np.asarray(want, dtype=float)), name


def test_fdyn_balanced_coriolis_gives_zero_accel(rng):
    model = random_chain(rng, 4, gravity=(0, 0, 0))
    q, qd = rng.normal(size=4), rng.normal(size=4)
    tau = coriolis_matrix(model, q, qd) @ qd
    assert np.allclose(fdyn(model, q, qd, tau, gravity=False), 0.0, atol=1e-10)


# ------------------------------------------------------------- momentum form

BAD_APPLIED_ENTRY_POINTS = {
    "idyn_body": lambda model, z, a: idyn(model, z, z, z, "body", applied=a),
    "idyn_spatial": lambda model, z, a: idyn(model, z, z, z, "spatial", applied=a),
    "projection_eom": lambda model, z, a: projection_eom(model, z, z, z, applied=a),
    "fdyn": lambda model, z, a: fdyn(model, z, z, applied=a),
    "momentum_rhs": lambda model, z, a: momentum_rhs(model, z, np.zeros((6, 6)), applied=a),
}


@pytest.mark.parametrize("applied", [np.ones((3, 12)), np.ones(36), np.full((6, 6), np.nan),
                                     np.where(np.eye(6, dtype=bool), np.inf, 1.0)])
@pytest.mark.parametrize("entry", list(BAD_APPLIED_ENTRY_POINTS))
def test_per_call_dynamics_reject_bad_applied(entry, applied):
    # the per-call functions check applied as chain_simulate does, rather
    # than reshaping any 6n entries or carrying NaN into the torques
    model = load_model(sample_model_path("arm_6r"))
    with pytest.raises(ValueError, match=r"applied must be a finite \(6, 6\) array"):
        BAD_APPLIED_ENTRY_POINTS[entry](model, np.zeros(6), applied)


def test_momentum_rhs_trivial(rng):
    model = random_chain(rng, 3, gravity=(0, 0, 0))
    q = rng.normal(size=3)
    pidot, qd = momentum_rhs(model, q, np.zeros((3, 6)), gravity=False)
    assert np.allclose(qd, 0.0, atol=0.0)
    assert np.allclose(pidot, 0.0, atol=1e-12)


def test_momentum_rhs_state_consistency(rng):
    h = 1e-6
    worst = 0.0
    for _ in range(6):
        n = int(rng.integers(1, 6))
        model = random_chain(rng, n)
        q, qd = rng.normal(size=n), rng.normal(size=n)
        tau = rng.normal(size=n)
        pis = spatial_momenta(model, q, qd)
        pidot, qd_rec = momentum_rhs(model, q, pis, tau)
        worst = max(worst, np.abs(qd_rec - qd).max())
        qdd = fdyn(model, q, qd, tau)
        fd = (spatial_momenta(model, q + h * qd, qd + h * qdd)
              - spatial_momenta(model, q - h * qd, qd - h * qdd)) / (2 * h)
        worst = max(worst, np.abs(fd - pidot).max())
    assert worst < 1e-8


# ---------------------------------------------------------------- op counts

@pytest.mark.parametrize("n", [2, 4, 10])
@pytest.mark.parametrize("rep", ["body", "spatial", "hybrid"])
def test_operation_counts_match_predictions(rng, rep, n):
    model = random_chain(rng, n, tree=False)
    q, qd, qdd = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
    res = idyn(model, q, qd, qdd, rep, gravity=False, full=True)
    pred = predict_op_counts(rep, n)
    assert res.report.frame_transforms_screw == pred.frame_transforms_screw
    assert res.report.frame_transforms_tensor == pred.frame_transforms_tensor
    assert res.report.lie_brackets == pred.lie_brackets
    assert res.report.rotations_screw == pred.rotations_screw
    assert res.report.translations_screw == pred.translations_screw



@pytest.mark.parametrize("rep", ["body", "spatial", "hybrid"])
def test_operation_counts_on_trees_and_forests(rng, rep):
    # a forest of r roots counts as a chain with r in place of its one root:
    # each non-root body adds the transforms and brackets of its link
    roots = set()
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(4):
            model = random_chain(rng, n, tree=True)
            r = sum(p < 0 for p in model.parent)
            roots.add(r)
            q, qd, qdd = (rng.normal(size=n) for _ in range(3))
            got = idyn(model, q, qd, qdd, rep, applied=rng.normal(size=(n, 6)),
                       full=True).report
            # (screw transforms, tensor transforms, brackets, rotations, translations)
            expect = {"body": (3 * (n - r), 0, 2 * n - r, 0, 0),
                      "spatial": (n, n, 2 * n - r, 0, 0),
                      "hybrid": (4 * n - 3 * r, n, 3 * n - r, n, 3 * (n - r))}[rep]
            assert (got.frame_transforms_screw, got.frame_transforms_tensor,
                    got.lie_brackets, got.rotations_screw, got.translations_screw) == expect
    assert max(roots) >= 3


def test_predicted_counts_reference_values():
    body = predict_op_counts("body", 4)
    assert (body.frame_transforms_screw, body.lie_brackets) == (9, 7)
    spatial = predict_op_counts("spatial", 4)
    assert (spatial.frame_transforms_screw, spatial.frame_transforms_tensor,
            spatial.lie_brackets) == (4, 4, 7)
    hybrid = predict_op_counts("hybrid", 4)
    assert (hybrid.translations_screw, hybrid.rotations_screw,
            hybrid.frame_transforms_tensor, hybrid.lie_brackets) == (9, 4, 4, 11)


@pytest.mark.parametrize("rep", ["body", "spatial", "hybrid"])
def test_idyn_counts_do_not_depend_on_the_configuration_cache(rng, rep):
    # idyn builds its frame table through its own counter: its report is
    # the prediction before and right after fdyn and mass_matrix built
    # configuration passes at the same (model, q)
    model = random_chain(rng, 5)
    q, qd, qdd = rng.normal(size=5), rng.normal(size=5), rng.normal(size=5)
    applied = rng.normal(size=(5, 6))
    pred = predict_op_counts(rep, model.n)
    assert idyn(model, q, qd, qdd, rep, applied, full=True).report == pred
    fdyn(model, q, qd)
    mass_matrix(model, q)
    assert idyn(model, q, qd, qdd, rep, applied, full=True).report == pred


@pytest.mark.parametrize("n", [0, -2, 2.5, 3.0, "4", None, True])
def test_predicted_counts_reject_n_that_is_no_body_count(n):
    # a tree has an integer number of bodies, at least one: n = 0 would
    # predict -3 body transforms, n = 2.5 fractional ones
    for rep in ("body", "spatial", "hybrid"):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            predict_op_counts(rep, n)


def test_counts_monotone_in_n():
    for rep in ("body", "spatial", "hybrid"):
        prev = predict_op_counts(rep, 2)
        for n in range(3, 12):
            cur = predict_op_counts(rep, n)
            assert cur.frame_transforms_screw >= prev.frame_transforms_screw
            assert cur.lie_brackets > prev.lie_brackets
            prev = cur


# ------------------------------------------------------------------ gravity

def test_gravity_wrench_is_weight_at_com(rng):
    model = random_chain(rng, 3)
    q = rng.normal(size=3)
    poses = fk(model, q)
    wh = gravity_wrenches(model, poses, "hybrid")
    for i in range(3):
        f = model.bodies[i].mass * model.gravity
        assert np.allclose(wh[i][3:], f, atol=1e-13)
        d = poses[i].rot @ model.bodies[i].com_offset
        assert np.allclose(wh[i][:3], np.cross(d, f), atol=1e-13)
