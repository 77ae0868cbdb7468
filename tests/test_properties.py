"""Property tests over random trees and forests with revolute, prismatic
and helical joints: the recursive sweeps against each other, against the
forward dynamics, and against the closed-form mass matrix."""

import numpy as np
from hypothesis import given, settings, strategies as st

from screwchain.dynamics import (
    convert_wrench, fdyn, idyn, mass_matrix, momentum_rhs, ne_wrench,
    spatial_inertia_of, spatial_momenta,
)
from screwchain.kinematics import JointState, accelerations, fk, jacobian

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
