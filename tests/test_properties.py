"""Property tests over random trees and forests with revolute, prismatic
and helical joints: the closed-form forward kinematics against products
of joint exponentials; the recursive sweeps against each other, against
the forward dynamics, and against the closed-form mass matrix and jerks;
the Jacobian and the twist and wrench conversions against per-pair oracles;
the Christoffel symbols and the Coriolis matrix against bracket-by-bracket
loops and the matrix form."""

import numpy as np
from hypothesis import given, settings, strategies as st

from screwchain.dynamics import (
    _backward_sweep, _loads, christoffel, convert_wrench, coriolis_matrix, fdyn,
    gravity_wrenches, idyn, mass_matrix, momentum_rhs, ne_wrench, spatial_inertia_of,
    spatial_momenta,
)
from screwchain.kinematics import (
    REPS, JointState, Twist, _fk_stacks, _forward_sweep, _frame_table, accelerations,
    convert_twist, fk, fk_body_form, jacobian, jerks, twists,
)
from screwchain.model import binet_inertia
from screwchain.se3 import (
    ad_matrix, adjoint, adjoint_rot, adjoint_trans, exp_se3, lie_bracket, screw,
)

from conftest import (
    JacobianOracle, fk_spatial_oracle, gravity_wrenches_oracle, inertias_oracle,
    instantaneous_screws_oracle, parent_transforms_oracle, random_chain,
    spatial_backward_oracle,
)

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                             database=None)


@st.composite
def chain_states(draw, max_n=7):
    """A random tree (or forest) with a random state, applied body wrenches
    and joint forces, all from one seed."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(1, max_n))
    tree = draw(st.booleans())
    rng = np.random.default_rng(seed)
    model = random_chain(rng, n, tree=tree)
    q, qd, qdd, tau = (rng.normal(size=n) for _ in range(4))
    wb = rng.normal(size=(n, 6))
    return model, q, qd, qdd, tau, wb


def convert_twist_oracle(s, from_rep, to_rep, pose):
    """Twist conversion through the body representation, branch by branch."""
    r = pose.rot
    if from_rep == to_rep:
        return s.copy()
    if from_rep == "body":
        body = s
    elif from_rep == "hybrid":
        body = adjoint_rot(r.T) @ s
    elif from_rep == "spatial":
        body = np.linalg.solve(adjoint(pose), s)
    else:
        body = screw(s[:3], r.T @ s[3:])
    if to_rep == "body":
        return body
    if to_rep == "hybrid":
        return adjoint_rot(r) @ body
    if to_rep == "spatial":
        return adjoint(pose) @ body
    return screw(body[:3], r @ body[3:])


def convert_wrench_oracle(w, from_rep, to_rep, pose):
    """Wrench conversion through the hybrid representation, branch by
    branch (body, spatial and hybrid only)."""
    if from_rep == to_rep:
        return w.copy()
    if from_rep == "body":
        wh = adjoint_rot(pose.rot) @ w
    elif from_rep == "spatial":
        wh = adjoint_trans(pose.trans).T @ w
    else:
        wh = w
    if to_rep == "hybrid":
        return wh
    if to_rep == "body":
        return adjoint_rot(pose.rot.T) @ wh
    return adjoint_trans(-pose.trans).T @ wh


def assert_close(got, expect, rtol=1e-12):
    """Entries agree to rtol of the largest entry (or of 1)."""
    scale = max(1.0, np.abs(expect).max(initial=0.0))
    assert np.abs(got - expect).max(initial=0.0) <= rtol * scale


def fk_body_exp_oracle(model, q):
    """(absolute, relative) poses as the product of ``exp_se3`` of the
    body-fixed joint screws, each relative pose B_i exp(X_i q_i)."""
    poses, rels = [], []
    for i in range(model.n):
        rel = model.rel_ref_pose(i) @ exp_se3(model.joints[i].screw_body * q[i])
        p = model.parent[i]
        poses.append(rel if p < 0 else poses[p] @ rel)
        rels.append(rel)
    return poses, rels


def body_mass_matrix_oracle(model, q):
    """(J^b)^T blockdiag(M^b) J^b, the closed form of the mass matrix."""
    n = model.n
    mb = np.zeros((6 * n, 6 * n))
    for i in range(n):
        mb[6 * i:6 * i + 6, 6 * i:6 * i + 6] = model.inertia_body(i)
    sj = JacobianOracle(model, q, "body")
    return sj.J.T @ mb @ sj.J


def body_jerk_oracle(model, q, qd, qdd, qddd):
    """Body jerks as the time derivative of the bracket sum of the body
    acceleration: nested brackets of the Jacobian columns over triples on
    every ancestor path, O(n^4)."""
    sj = JacobianOracle(model, q, "body")
    jerk = np.zeros((model.n, 6))
    for i in range(model.n):
        path = model.path(i)
        cols = {j: sj.column(i, j) for j in path}
        acc = np.zeros(6)
        for j in path:
            acc += cols[j] * qddd[j]
        for a, j in enumerate(path):
            for k in path[a + 1:]:
                cjk = qd[j] * qd[k]
                acc += lie_bracket(cols[j], cols[k]) * (
                    2.0 * qdd[j] * qd[k] + qd[j] * qdd[k])
                for r in path[a + 1:]:
                    acc += lie_bracket(lie_bracket(cols[j], cols[r]),
                                       cols[k]) * cjk * qd[r]
                for r in path:
                    if r > k:
                        acc += lie_bracket(cols[j],
                                           lie_bracket(cols[k], cols[r])) * cjk * qd[r]
        jerk[i] = acc
    return jerk


def spatial_jerk_oracle(model, q, qd, qdd, qddd):
    """Spatial jerks as the path sum of the second time derivatives of
    the joint screws, O(n^3)."""
    js = JacobianOracle(model, q, "spatial")
    cache = accelerations(model, JointState(q, qd, qdd), "spatial")
    V = cache.twists
    jerk = np.zeros((model.n, 6))
    for i in range(model.n):
        acc = np.zeros(6)
        for j in model.path(i):
            x = js.column(j, j)
            acc += x * qddd[j]
            acc += 2.0 * lie_bracket(V[j], x) * qdd[j]
            s = np.zeros(6)
            for k in model.path(j):
                s += js.column(k, k) * qdd[k]
            acc += lie_bracket(s, x) * qd[j]
            p = model.parent[j]
            vp = V[p] if p >= 0 else np.zeros(6)
            acc += lie_bracket(vp + V[j] - V[i], lie_bracket(V[j], x)) * qd[j]
        jerk[i] = acc
    return jerk


def hybrid_jerk_oracle(model, q, qd, qdd, qddd):
    """Hybrid jerks as J qddd + 2 Jdot qdd + Jddot qd with the analytic
    time derivatives of the hybrid Jacobian columns Ad(r_ij) X^h_j."""
    jh = JacobianOracle(model, q, "hybrid")
    cache = accelerations(model, JointState(q, qd, qdd), "hybrid")
    poses, V, Vd = cache.poses, cache.twists, cache.accels
    zero3 = np.zeros(3)
    jerk = np.zeros((model.n, 6))
    for i in range(model.n):
        acc = np.zeros(6)
        for j in model.path(i):
            x = jh.column(j, j)
            ad_r = adjoint_trans(poses[j].trans - poses[i].trans)
            rd = screw(zero3, V[j][3:] - V[i][3:])
            rdd = screw(zero3, Vd[j][3:] - Vd[i][3:])
            omega = screw(V[j][:3], zero3)
            omegad = screw(Vd[j][:3], zero3)
            jdot = lie_bracket(rd, x) + ad_r @ lie_bracket(omega, x)
            jddot = (lie_bracket(rdd, x)
                     + 2.0 * lie_bracket(rd, lie_bracket(omega, x))
                     + ad_r @ (lie_bracket(omegad, x)
                               + lie_bracket(omega, lie_bracket(omega, x))))
            acc += ad_r @ x * qddd[j] + 2.0 * jdot * qdd[j] + jddot * qd[j]
        jerk[i] = acc
    return jerk


def christoffel_oracle(model, q, variant="standard"):
    """Christoffel symbols bracket by bracket: for every body l and every
    i and ordered pair a <= b on its path, the standard (three bracket
    quadratic forms against M_l) or Binet (COM-shifted columns against
    Binet's tensor and the mass) value, mirrored into (i, b, a); O(n^4)."""
    n = model.n
    sj = JacobianOracle(model, q, "body")
    gamma = np.zeros((n, n, n))
    for l in range(n):
        path = model.path(l)
        m_l = model.inertia_body(l)
        body = model.bodies[l]
        binet_c, mass, d = binet_inertia(body.inertia_com), body.mass, body.com_offset
        for i in path:
            ji = sj.column(l, i)
            ai, li = ji[:3], ji[3:] - np.cross(d, ji[:3])
            for a_idx, a in enumerate(path):
                ja = sj.column(l, a)
                for b in path[a_idx:]:
                    jb = sj.column(l, b)
                    if variant == "standard":
                        val = 0.5 * (jb @ m_l @ lie_bracket(ji, ja)
                                     + ja @ m_l @ lie_bracket(ji, jb)
                                     + ji @ m_l @ lie_bracket(ja, jb))
                    else:
                        aa, ab = ja[:3], jb[:3]
                        lb = jb[3:] - np.cross(d, ab)
                        val = (aa @ binet_c @ np.cross(ab, ai)
                               + mass * (li @ np.cross(aa, lb)))
                    gamma[i, a, b] += val
                    if a != b:
                        gamma[i, b, a] += val
    return gamma


def coriolis_oracle(model, q, qd):
    """Coriolis matrix in matrix form -(J^b)^T (M A a + b^T M) J^b with
    M = blockdiag(M^b_i), a = blockdiag(qd_i ad_{X_i}) and
    b = blockdiag(ad_{V_i}), the body twists from the recursion."""
    n = model.n
    sj = JacobianOracle(model, q, "body")
    vb = twists(model, q, qd, "body").twists
    mb = np.zeros((6 * n, 6 * n))
    a = np.zeros((6 * n, 6 * n))
    b = np.zeros((6 * n, 6 * n))
    for i in range(n):
        blk = slice(6 * i, 6 * i + 6)
        mb[blk, blk] = model.inertia_body(i)
        a[blk, blk] = qd[i] * ad_matrix(model.joints[i].screw_body)
        b[blk, blk] = ad_matrix(vb[i])
    return -sj.J.T @ (mb @ sj.A @ a + b.T @ mb) @ sj.J


JERK_ORACLES = {"body": body_jerk_oracle, "spatial": spatial_jerk_oracle,
                "hybrid": hybrid_jerk_oracle}


@PROPERTY_SETTINGS
@given(chain_states(), st.sampled_from([1e-9, 1e-3, 1.0, 40.0]))
def test_fk_closed_form_matches_exponential_products(case, scale):
    # scale 1e-9 puts every angle near 0, 40 most of them well past 2 pi
    model, q = case[0], case[1] * scale
    poses, rels = fk_body_form(model, q)
    exp_poses, exp_rels = fk_body_exp_oracle(model, q)
    for got, expect in ((poses, exp_poses), (rels, exp_rels),
                        (poses, fk_spatial_oracle(model, q))):
        for a, b in zip(got, expect):
            assert_close(a.matrix(), b.matrix())


@PROPERTY_SETTINGS
@given(chain_states())
def test_frame_table_matches_per_body_builders(case):
    # every stacked quantity of the frame tables (and the public gravity
    # wrenches) against the body-by-body builders, to 1e-12 of its
    # largest entry
    model, q = case[:2]
    absolute, relative = _fk_stacks(model, q)
    poses, rels = fk_body_form(model, q)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for rep in ("body", "spatial", "hybrid"):
        frames = _frame_table(model, absolute, relative, rep)
        close(frames.screws, instantaneous_screws_oracle(model, poses, rep))
        close(frames.inertias, inertias_oracle(model, poses, rep))
        gravity = gravity_wrenches_oracle(model, poses, rep)
        close(frames.gravity, gravity)
        close(gravity_wrenches(model, poses, rep), gravity)
        if rep == "spatial":
            assert frames.parent is None
            continue
        for i, want in enumerate(parent_transforms_oracle(model, poses, rels, rep)):
            if want is not None:
                close(frames.parent[i], want)


@PROPERTY_SETTINGS
@given(chain_states())
def test_idyn_four_representations_agree(case):
    model, q, qd, qdd, _, wb = case
    poses = fk(model, q)
    applied = {"body": wb}
    for rep in ("spatial", "hybrid"):
        applied[rep] = np.array([convert_wrench(wb[i], "body", rep, poses[i])
                                 for i in range(model.n)])
    # mixed: body-fixed torque part, inertial force part
    applied["mixed"] = applied["hybrid"].copy()
    for i in range(model.n):
        applied["mixed"][i, :3] = wb[i, :3]
    results = [idyn(model, q, qd, qdd, rep, applied=applied[rep])
               for rep in ("body", "spatial", "hybrid", "mixed")]
    scale = max(1.0, max(np.abs(r).max() for r in results))
    for r in results[1:]:
        assert np.abs(r - results[0]).max() / scale < 1e-9


@PROPERTY_SETTINGS
@given(chain_states())
def test_idyn_inverts_fdyn(case):
    model, q, qd, _, tau, wb = case
    qdd = fdyn(model, q, qd, tau, applied=wb)
    assert np.abs(idyn(model, q, qd, qdd, "body", applied=wb) - tau).max() < 1e-9


@PROPERTY_SETTINGS
@given(chain_states())
def test_momentum_rhs_recovers_qd_and_agrees_with_fdyn(case):
    model, q, qd, _, tau, wb = case
    pidot, qd_rec = momentum_rhs(model, q, spatial_momenta(model, q, qd), tau,
                                 applied=wb)
    assert np.abs(qd_rec - qd).max() < 1e-8
    # each momentum rate is the spatial balance of its body under fdyn's qdd
    qdd = fdyn(model, q, qd, tau, applied=wb)
    cs = accelerations(model, JointState(q, qd, qdd), "spatial")
    expect = np.array([ne_wrench(cs.twists[i], cs.accels[i],
                                 spatial_inertia_of(model, cs.poses, i), "spatial")
                       for i in range(model.n)])
    assert np.abs(pidot - expect).max() < 1e-8


@PROPERTY_SETTINGS
@given(chain_states())
def test_stacked_spatial_balances_match_per_body_loop(case):
    # the backward sweep's stacked spatial branch and the momentum rates
    # against the per-body ne_wrench loop on the same twists and loads
    model, q, qd, qdd, tau, wb = case
    frames = _frame_table(model, *_fk_stacks(model, q), "spatial")
    cache = _forward_sweep(model, frames, JointState(q, qd, qdd), 1)
    ext = _loads(model, frames, wb, True, "body")
    got = _backward_sweep(model, frames, cache, ext)
    expect = spatial_backward_oracle(model, cache.twists, cache.accels, frames.inertias,
                                     frames.screws, ext)
    for g, e in zip(got, expect):
        assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()

    pidot, qd_rec = momentum_rhs(model, q, spatial_momenta(model, q, qd), tau, applied=wb)
    cs = _forward_sweep(model, frames,
                        JointState(q, qd_rec, fdyn(model, q, qd_rec, tau, applied=wb)), 1)
    rates = np.array([ne_wrench(cs.twists[i], cs.accels[i], frames.inertias[i], "spatial")
                      for i in range(model.n)])
    assert np.abs(pidot - rates).max() <= 1e-12 * np.abs(rates).max()


@PROPERTY_SETTINGS
@given(chain_states())
def test_mass_matrix_equals_jacobian_closed_form(case):
    model, q = case[0], case[1]
    m = mass_matrix(model, q)
    oracle = body_mass_matrix_oracle(model, q)
    assert np.array_equal(m, m.T)
    assert np.abs(m - oracle).max() < 1e-10 * max(1.0, np.abs(oracle).max())


@PROPERTY_SETTINGS
@given(chain_states(), st.integers(0, 2 ** 32 - 1))
def test_jerks_match_closed_forms(case, seed):
    model, q, qd, qdd = case[:4]
    qddd = np.random.default_rng(seed).normal(size=model.n)
    state = JointState(q, qd, qdd, qddd)
    for rep, oracle in JERK_ORACLES.items():
        assert np.allclose(jerks(model, state, rep).jerks,
                           oracle(model, q, qd, qdd, qddd), rtol=0.0, atol=1e-10)


@PROPERTY_SETTINGS
@given(chain_states(max_n=9))
def test_idyn_op_counts_on_forest(case):
    # counts of the sweep that ran, on trees with r roots: every non-root
    # body transforms its parent's twist, acceleration and wrench
    model, q, qd, qdd, _, _ = case
    n = model.n
    r = sum(p < 0 for p in model.parent)
    body = idyn(model, q, qd, qdd, "body", gravity=False, full=True).report
    assert (body.frame_transforms_screw, body.lie_brackets) == (3 * (n - r), 2 * n - r)
    spatial = idyn(model, q, qd, qdd, "spatial", gravity=False, full=True).report
    assert (spatial.frame_transforms_screw, spatial.frame_transforms_tensor,
            spatial.lie_brackets) == (n, n, 2 * n - r)
    hybrid = idyn(model, q, qd, qdd, "hybrid", gravity=False, full=True).report
    assert (hybrid.translations_screw, hybrid.rotations_screw,
            hybrid.frame_transforms_tensor, hybrid.lie_brackets) == (
        3 * (n - r), n, n, 3 * n - r)


@PROPERTY_SETTINGS
@given(chain_states())
def test_jacobian_matches_per_pair_oracle(case):
    model, q = case[0], case[1]
    poses = fk(model, q)
    for rep in REPS:
        sj, oracle = jacobian(model, q, rep), JacobianOracle(model, q, rep)
        assert_close(sj.J, oracle.J)
        assert_close(oracle.A @ oracle.X, sj.J)
        # the diagonal blocks are the joint screws in rep: the oracle's X,
        # whose mixed entries hold the hybrid screws
        for j in range(model.n):
            x_j = oracle.X[6 * j:6 * j + 6, j]
            if rep == "mixed":
                x_j = convert_twist_oracle(x_j, "hybrid", "mixed", poses[j])
            assert_close(sj.column(j, j), x_j)


@PROPERTY_SETTINGS
@given(chain_states())
def test_convert_twist_and_wrench_match_oracles(case):
    model, q, _, _, _, wb = case
    poses = fk(model, q)
    for i in range(model.n):
        s = wb[i][::-1].copy()  # any 6-vector serves as a twist
        for a in REPS:
            for b in REPS:
                got = convert_twist(Twist(s, a, i), b, poses).s
                assert_close(got, convert_twist_oracle(s, a, b, poses[i]))
                w = convert_wrench(wb[i], a, b, poses[i])
                if "mixed" not in (a, b):
                    assert_close(w, convert_wrench_oracle(wb[i], a, b, poses[i]))
                # the wrench map is the dual of the twist map: power is invariant
                t_a = convert_twist(Twist(s, b, i), a, poses).s
                scale = (np.linalg.norm(w) * np.linalg.norm(s)
                         + np.linalg.norm(wb[i]) * np.linalg.norm(t_a))
                assert abs(w @ s - wb[i] @ t_a) <= 1e-12 * max(1.0, scale)


@PROPERTY_SETTINGS
@given(chain_states())
def test_christoffel_and_coriolis_match_oracles(case):
    model, q, qd = case[:3]
    for variant in ("standard", "binet"):
        assert_close(christoffel(model, q, variant), christoffel_oracle(model, q, variant))
    assert_close(coriolis_matrix(model, q, qd), coriolis_oracle(model, q, qd))
