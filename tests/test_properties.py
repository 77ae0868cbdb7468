"""Property tests over random trees and forests with revolute, prismatic
and helical joints: the recursive sweeps against each other, against the
forward dynamics, and against the closed-form mass matrix and jerks."""

import numpy as np
from hypothesis import given, settings, strategies as st

from screwchain.dynamics import (
    convert_wrench, fdyn, idyn, mass_matrix, momentum_rhs, ne_wrench,
    spatial_inertia_of, spatial_momenta,
)
from screwchain.kinematics import JointState, accelerations, fk, jacobian, jerks
from screwchain.se3 import adjoint_trans, lie_bracket, screw

from conftest import random_chain

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


def body_mass_matrix_oracle(model, q):
    """(J^b)^T blockdiag(M^b) J^b, the closed form of the mass matrix."""
    n = model.n
    mb = np.zeros((6 * n, 6 * n))
    for i in range(n):
        mb[6 * i:6 * i + 6, 6 * i:6 * i + 6] = model.inertia_body(i)
    sj = jacobian(model, q, "body")
    return sj.J.T @ mb @ sj.J


def body_jerk_oracle(model, q, qd, qdd, qddd):
    """Body jerks as the time derivative of the bracket sum of the body
    acceleration: nested brackets of the Jacobian columns over triples on
    every ancestor path, O(n^4)."""
    sj = jacobian(model, q, "body")
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
    js = jacobian(model, q, "spatial")
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
    jh = jacobian(model, q, "hybrid")
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


JERK_ORACLES = {"body": body_jerk_oracle, "spatial": spatial_jerk_oracle,
                "hybrid": hybrid_jerk_oracle}


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
