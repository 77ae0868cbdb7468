"""Property tests over random trees and forests with revolute, prismatic
and helical joints: the closed-form forward kinematics against products
of joint exponentials; the recursive sweeps against each other, against
the closed-form motion of the configuration pass, against the forward
dynamics, and against the closed-form mass matrix and jerks; the
Jacobian, its table of first partials and the twist and wrench
conversions against per-pair oracles;
the Christoffel symbols and the Coriolis matrix against bracket-by-bracket
loops and the matrix form; and the invariance of the dynamics under moves
of the body frames and the world frame."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screwchain import dynamics, kinematics
from screwchain.dynamics import (
    OpCountReport, _Configuration, _backward_sweep, _loads, christoffel,
    convert_wrench,
    coriolis_matrix, fdyn, gravity_potential, gravity_wrenches, idyn, kinetic_energy,
    mass_matrix, momentum_rhs, ne_wrench, predict_op_counts, spatial_inertia_of,
    spatial_momenta,
)
from screwchain.kinematics import (
    REPS, JointState, Twist, _brackets, _fk_stacks, _frame_table, _spatial_motion,
    accelerations, convert_twist, fk, fk_body_form, hybrid_jacobian_partial2, jacobian,
    jacobian_partial, jacobian_partials, jerks, twists,
)
from screwchain.integrators import chain_simulate
from screwchain.model import BodyModel, ChainModel, JointModel, binet_inertia, load_model
from screwchain.samples import sample_model_path
from screwchain.se3 import (
    Pose, ad_matrix, adjoint, adjoint_rot, adjoint_trans, exp_se3, lie_bracket, screw,
)

from conftest import (
    JacobianOracle, fk_spatial_oracle, gravity_wrenches_oracle, inertias_oracle,
    instantaneous_screws_oracle, jerk_recursion_oracle, parent_transforms_oracle,
    pass_potential_oracle, pass_total_momentum_oracle, path_sums_oracle,
    rand_rotation, random_chain, spatial_backward_oracle, spatial_sweep_oracle,
    subtree_sums_oracle,
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
def test_pseudo_inertia_tables_read_out_the_body_inertias(case):
    # at the identity pose the readout of each 4x4 pseudo-inertia J is the
    # body inertia, and J is positive definite for a physical body
    model = case[0]
    tab = model.tables
    read = (tab.pseudo.reshape(model.n, 16) @ tab.readout)[:, :36].reshape(model.n, 6, 6)
    assert np.abs(read - tab.inertia).max() <= 1e-15 * np.abs(tab.inertia).max()
    assert np.linalg.eigvalsh(tab.pseudo).min() > 0.0


def test_bundled_pseudo_inertias_are_positive_definite():
    for name in ("pendulum_1r", "planar_2r", "arm_6r"):
        tab = load_model(sample_model_path(name)).tables
        assert np.linalg.eigvalsh(tab.pseudo).min() > 0.0
        read = (tab.pseudo.reshape(-1, 16) @ tab.readout)[:, :36].reshape(-1, 6, 6)
        assert np.abs(read - tab.inertia).max() <= 1e-15 * np.abs(tab.inertia).max()


@PROPERTY_SETTINGS
@given(chain_states(), st.booleans(), st.booleans())
def test_stacked_spatial_idyn_matches_recursive_sweeps(case, gravity, loaded):
    # idyn's closed-form spatial motion against the recursive forward
    # sweep over the same frame table, both through the backward sweep
    model, q, qd, qdd, _, wb = case
    applied = wb if loaded else None
    got = idyn(model, q, qd, qdd, "spatial", applied=applied, gravity=gravity, full=True)
    frames = _frame_table(model, *_fk_stacks(model, q), "spatial")
    V, Vd = spatial_sweep_oracle(model, frames.screws, qd, qdd)
    ext = _loads(model, frames, applied, gravity, "spatial")
    expect = _backward_sweep(model, frames, V, Vd, ext)
    for g, e in zip((got.Q, got.wrenches), expect):
        assert np.abs(g - e).max() <= 1e-12 * max(1.0, np.abs(e).max())


@PROPERTY_SETTINGS
@given(chain_states())
def test_pass_potential_and_total_momentum_match_public_functions(case):
    # the potential -g . sum h_i of the carried pseudo-inertias and the
    # total momentum (Ic_k js_k)^T qd, against gravity_potential and the
    # summed per-body momenta; and so in a simulation's sample reports
    model, q, qd = case[:3]
    cfg = _Configuration(model, q)
    potential = gravity_potential(model, q)
    assert abs(pass_potential_oracle(cfg) - potential) <= 1e-12 * max(1.0, abs(potential))
    total = spatial_momenta(model, q, qd).sum(axis=0)
    assert np.abs(pass_total_momentum_oracle(cfg, qd) - total).max() <= 1e-12 * max(
        1.0, np.abs(total).max())
    for form in ("state", "momentum"):
        traj = chain_simulate(model, q, qd, T=2e-3, h=1e-3, form=form)
        for k, r in enumerate(traj.reports):
            qk, qdk = traj.q[k], traj.qd[k]
            energy = kinetic_energy(model, qk, qdk) + gravity_potential(model, qk)
            total = spatial_momenta(model, qk, qdk).sum(axis=0)
            assert abs(r.energy - energy) <= 1e-12 * max(1.0, abs(energy))
            assert np.abs(r.momentum_spatial - total).max() <= 1e-12 * max(
                1.0, np.abs(total).max())


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


def moved_frames(model, rng):
    """(model', G, [D_i]): the model with each body frame moved by a random
    pose D_i and the world frame by a random pose G.  Body i's reference
    pose becomes G C_i D_i, its COM and COM inertia are carried into the
    new body frame, a joint's axis and point are carried by G (frame
    spatial) or by D_i^-1 (frame body), and gravity becomes R_G g."""
    g = Pose(rand_rotation(rng), rng.normal(size=3))
    moves = [Pose(rand_rotation(rng), rng.normal(size=3)) for _ in range(model.n)]
    bodies, joints = [], []
    for body, joint, d in zip(model.bodies, model.joints, moves):
        back = d.inverse()
        bodies.append(BodyModel(body.mass, back.apply(body.com_offset),
                                back.rot @ body.inertia_com @ d.rot, g @ body.ref_pose @ d))
        carry = g if joint.frame == "spatial" else back
        joints.append(JointModel(joint.kind, axis=carry.rot @ joint.axis,
                                 point=carry.apply(joint.point), pitch=joint.pitch,
                                 frame=joint.frame))
    return ChainModel(bodies, joints, model.parent, g.rot @ model.gravity), g, moves


@PROPERTY_SETTINGS
@given(chain_states(), st.integers(0, 2 ** 32 - 1))
def test_frame_invariance(case, seed):
    # the formulation holds in any body frames and any world frame: moving
    # them changes no joint-space quantity, maps body twists and Jacobian
    # rows by Ad(D_i)^-1 and spatial ones by Ad(G), and body wrenches W by
    # Ad(D_i)^T
    model, q, qd, qdd, tau, wb = case
    n = model.n
    moved, g, moves = moved_frames(model, np.random.default_rng(seed))
    wb_moved = np.array([adjoint(d).T @ w for d, w in zip(moves, wb)])

    def same(got, want):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    for rep in REPS:
        same(idyn(moved, q, qd, qdd, rep), idyn(model, q, qd, qdd, rep))
    same(idyn(moved, q, qd, qdd, applied=wb_moved), idyn(model, q, qd, qdd, applied=wb))
    same(mass_matrix(moved, q), mass_matrix(model, q))
    same(fdyn(moved, q, qd, tau, applied=wb_moved), fdyn(model, q, qd, tau, applied=wb))
    for rep, maps in (("body", np.array([adjoint(d.inverse()) for d in moves])),
                      ("spatial", np.tile(adjoint(g), (n, 1, 1)))):
        same(twists(moved, q, qd, rep).twists,
             (maps @ twists(model, q, qd, rep).twists[..., None])[..., 0])
        same(jacobian(moved, q, rep).J.reshape(n, 6, n),
             maps @ jacobian(model, q, rep).J.reshape(n, 6, n))


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
    V, Vd = spatial_sweep_oracle(model, frames.screws, qd, qdd)
    ext = _loads(model, frames, wb, True, "body")
    got = _backward_sweep(model, frames, V, Vd, ext)
    expect = spatial_backward_oracle(model, V, Vd, frames.inertias, frames.screws, ext)
    for g, e in zip(got, expect):
        assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()

    pidot, qd_rec = momentum_rhs(model, q, spatial_momenta(model, q, qd), tau, applied=wb)
    V, Vd = spatial_sweep_oracle(model, frames.screws, qd_rec,
                                 fdyn(model, q, qd_rec, tau, applied=wb))
    rates = np.array([ne_wrench(V[i], Vd[i], frames.inertias[i], "spatial")
                      for i in range(model.n)])
    assert np.abs(pidot - rates).max() <= 1e-12 * np.abs(rates).max()



@PROPERTY_SETTINGS
@given(chain_states(), st.booleans(), st.booleans())
def test_body_and_hybrid_backward_sweep_match_per_body_loop(case, gravity, loaded):
    # the stacked balances and the carry-only loop against the per-body
    # ne_wrench loop, which carries by the oracle's parent transforms
    model, q, qd, qdd, _, wb = case
    applied = wb if loaded else None
    for rep in ("body", "hybrid"):
        frames = _frame_table(model, *_fk_stacks(model, q), rep)
        cache = accelerations(model, JointState(q, qd, qdd), rep)
        ext = _loads(model, frames, applied, gravity, rep)
        got = _backward_sweep(model, frames, cache.twists, cache.accels, ext)
        carry = parent_transforms_oracle(model, cache.poses, cache.rel_poses, rep)
        expect = spatial_backward_oracle(model, cache.twists, cache.accels, frames.inertias,
                                         frames.screws, ext, rep, carry)
        for g, e in zip(got, expect):
            assert np.abs(g - e).max() <= 1e-12 * max(1.0, np.abs(e).max())


@PROPERTY_SETTINGS
@given(chain_states(), st.booleans(), st.booleans())
def test_configuration_motion_and_bias_match_recursive_sweeps(case, gravity, loaded):
    # the configuration pass's closed-form twists (path sums of js_j qd_j),
    # accelerations at qdd = 0 (path sums of qd_j [V_j, js_j]), balances
    # and the bias from them against the recursive spatial forward sweep,
    # the oracle; the returned qdd solves with that bias
    model, q, qd, _, tau, wb = case
    applied = wb if loaded else None
    cfg = _Configuration(model, q)
    qdd, V, vd, balances = cfg.accel(qd, tau, applied, gravity)
    sweep_v, sweep_vd = spatial_sweep_oracle(model, cfg.frames.screws, qd)
    loads = _loads(model, cfg.frames, applied, gravity, "body")
    got = _backward_sweep(model, cfg.frames, V, vd, loads)
    expect = _backward_sweep(model, cfg.frames, sweep_v, sweep_vd, loads)
    rates = np.array([ne_wrench(sweep_v[i], sweep_vd[i], cfg.frames.inertias[i],
                                "spatial") for i in range(model.n)])
    # the balances at qdd = 0 vanish with qd, so they are compared on a scale of 1
    assert np.abs(balances - rates).max() <= 1e-12 * max(1.0, np.abs(rates).max())
    for g, e in [(V, sweep_v), (vd, sweep_vd), *zip(got, expect)]:
        assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()
    assert np.array_equal(qdd, cfg.solve(tau - got[0]))


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
@given(chain_states(max_n=9), st.integers(0, 2 ** 32 - 1))
def test_closed_form_jerks_match_recursion(case, seed):
    # the closed-form motion of jerks() against the recursive sweeps: the
    # twists and accelerations of _forward_sweep (spatial_sweep_oracle in
    # spatial form) and the jerk-level recursion of the oracle, in all four
    # representations
    model, q, qd, qdd = case[:4]
    qddd = np.random.default_rng(seed).normal(size=model.n)
    state = JointState(q, qd, qdd, qddd)
    screws = _frame_table(model, *_fk_stacks(model, q), "spatial").screws
    for rep in REPS:
        got = jerks(model, state, rep)
        if rep == "spatial":
            sweep = spatial_sweep_oracle(model, screws, qd, qdd)
        else:
            cache = accelerations(model, state, rep)
            sweep = cache.twists, cache.accels
        for g, e in zip((got.twists, got.accels, got.jerks),
                        (*sweep, jerk_recursion_oracle(model, state, rep))):
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max(initial=0.0)


@PROPERTY_SETTINGS
@given(chain_states(), st.integers(0, 2 ** 32 - 1))
def test_spatial_motion_kernel_matches_per_body_oracles(case, seed):
    # every output of the one spatial path-sum kernel against a per-body
    # oracle, to 1e-12 of the largest entry: the public spatial twists and
    # accelerations and the kernel's own motion against the recursion, its
    # balances against the ne_wrench loop and its jerks against the
    # jerk-level recursion (public jerks: the test above)
    model, q, qd, qdd = case[:4]
    qddd = np.random.default_rng(seed).normal(size=model.n)
    state = JointState(q, qd, qdd, qddd)
    frames = _frame_table(model, *_fk_stacks(model, q), "spatial")
    V, Vd = spatial_sweep_oracle(model, frames.screws, qd, qdd)
    motion, balances = _spatial_motion(model, frames, qd, qdd, qddd)
    rates = np.array([ne_wrench(V[i], Vd[i], frames.inertias[i], "spatial")
                      for i in range(model.n)])
    acc = accelerations(model, state, "spatial")
    for g, e in ((twists(model, q, qd, "spatial").twists, V), (acc.twists, V),
                 (acc.accels, Vd), (motion[0], V), (motion[1], Vd), (balances, rates),
                 (motion[2], jerk_recursion_oracle(model, state, "spatial"))):
        assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()


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
    if r == 1:  # the prediction is exact on any single-root tree
        for report in (body, spatial, hybrid):
            assert report == predict_op_counts(report.rep, n)


def tallied_idyn(model, q, qd, qdd, rep, applied, gravity):
    """(report, tally) of one ``idyn(..., full=True)`` call.  The tally
    counts the work that ran: one screw transform and one congruence per
    row of the 4x4 matrices that carry the frame table's screws and
    inertias (rotations when the matrices carry no translation); one screw
    transform per product with the parent-transform stack (a translation
    when its rotation blocks are I); one bracket per call of
    ``kinematics.lie_bracket``; and per row of a stacked ``_brackets``
    call one co-bracket, plus one bracket unless its two screws are equal
    (then it is exactly 0)."""
    tally = OpCountReport("hybrid" if rep == "mixed" else rep, model.n)
    eye3 = np.eye(3)

    class Products(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [a.view(np.ndarray) if isinstance(a, Products) else a for a in inputs]
            if ufunc is np.matmul:
                m = plain[0]
                tally.frame_transforms_screw += 1
                tally.translations_screw += (np.array_equal(m[:3, :3], eye3)
                                             and np.array_equal(m[3:, 3:], eye3))
            return getattr(ufunc, method)(*plain, **kwargs)

    def frame_table(*args):
        frames = table(*args)
        if frames.parent is None:
            return frames
        return frames._replace(parent=frames.parent.view(Products))

    def carried_screws(w, lines):
        tally.frame_transforms_screw += len(w)
        tally.rotations_screw += 0 if w[:, :3, 3].any() else len(w)
        return screws(w, lines)

    def read_inertias(w, pseudo, readout):
        tally.frame_transforms_tensor += len(w)
        return inertias(w, pseudo, readout)

    def lie_bracket_(x, y):
        tally.lie_brackets += 1
        return bracket(x, y)

    def brackets_(v, xp):
        tally.lie_brackets += len(v) + int((v != xp[:, :6]).any(axis=1).sum())
        return brackets(v, xp)

    table, screws, inertias = (kinematics._frame_table, kinematics._carried_screws,
                               kinematics._read_inertias)
    bracket, brackets = kinematics.lie_bracket, kinematics._brackets
    with pytest.MonkeyPatch.context() as mp:
        for module, name, fn in ((kinematics, "_frame_table", frame_table),
                                 (kinematics, "_carried_screws", carried_screws),
                                 (kinematics, "_read_inertias", read_inertias),
                                 (kinematics, "lie_bracket", lie_bracket_),
                                 (kinematics, "_brackets", brackets_),
                                 (dynamics, "_brackets", brackets_)):
            mp.setattr(module, name, fn)
        report = idyn(model, q, qd, qdd, rep, applied=applied, gravity=gravity,
                      full=True).report
    return report, tally


@PROPERTY_SETTINGS
@given(chain_states(max_n=9), st.booleans(), st.booleans())
def test_reported_op_counts_equal_the_operations_executed(case, gravity, loaded):
    # the report of each representation against a tally of the transforms
    # and brackets that the call executed (tallied_idyn), so a count taken
    # once per loop still measures the loop that ran
    model, q, qd, qdd, _, wb = case
    for rep in REPS:
        report, tally = tallied_idyn(model, q, qd, qdd, rep, wb if loaded else None, gravity)
        assert report == tally


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


def jacobian_partials_oracle(model, q, rep):
    """The first partials D[i, :, j, k] of the Jacobian entry by entry, from
    the bracket formulas on per-pair oracle columns: body [J_ij, J_ik] for
    j < k; spatial [J_kk, J_jj] for k strictly above j; hybrid
    [(0, -v_ik), J_ij], plus [J_ik, J_ij] when k is on the path of j; zero
    off body i's path."""
    n = model.n
    col = JacobianOracle(model, q, rep).column
    out = np.zeros((n, 6, n, n))
    for i in range(n):
        for j in model.path(i):
            for k in model.path(i):
                if rep == "body" and j < k:
                    out[i, :, j, k] = lie_bracket(col(i, j), col(i, k))
                elif rep == "spatial" and k < j:
                    out[i, :, j, k] = lie_bracket(col(k, k), col(j, j))
                elif rep == "hybrid":
                    out[i, :, j, k] = lie_bracket(screw(np.zeros(3), -col(i, k)[3:]),
                                                  col(i, j))
                    if model.on_path(k, j):
                        out[i, :, j, k] += lie_bracket(col(i, k), col(i, j))
    return out


@PROPERTY_SETTINGS
@given(chain_states())
def test_jacobian_partials_match_bracket_oracle(case):
    model, q = case[:2]
    for rep in ("body", "spatial", "hybrid"):
        want = jacobian_partials_oracle(model, q, rep)
        got = jacobian_partials(model, q, rep)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@PROPERTY_SETTINGS
@given(chain_states())
def test_single_jacobian_partials_equal_table_entries(case):
    # every (i, j, k) entry from its two Jacobian columns against the
    # table; the spatial entry reads row j, and the hybrid second partial
    # (two entries inside) against its product rule on the table
    model, q = case[:2]
    n = model.n
    tables = {rep: jacobian_partials(model, q, rep) for rep in ("body", "spatial", "hybrid")}
    jh = jacobian(model, q, "hybrid")
    for rep, table in tables.items():
        scale = np.abs(table).max()  # 0 for one body: the entries must be 0 too
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    want = table[j if rep == "spatial" else i, :, j, k]
                    got = jacobian_partial(model, q, rep, i, j, k)
                    assert np.abs(got - want).max() <= 1e-12 * scale
    d, zero3 = tables["hybrid"], np.zeros(3)
    i = n - 1
    for j in model.path(i):
        for k in model.path(i):
            if j <= k:
                r = model.path(i)[0]
                want = (lie_bracket(d[i, :, j, r], screw(zero3, jh.column(i, k)[3:]))
                        + lie_bracket(jh.column(i, j), screw(zero3, d[i, 3:, k, r])))
                got = hybrid_jacobian_partial2(model, q, i, j, k, r)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(d).max()


@PROPERTY_SETTINGS
@given(chain_states())
def test_tree_sums_match_per_body_loops(case):
    # the products with the path matrix (path^T a over each body's path,
    # path a over its subtree) against the roots-to-leaves and
    # leaves-to-roots loops, on stacks of vectors and of matrices
    model, q, qd, _, _, wb = case
    frames = _frame_table(model, *_fk_stacks(model, q), "spatial")
    path = model.tables.path
    for a in (wb, frames.screws * qd[:, None], frames.inertias):
        flat = a.reshape(model.n, -1)
        for got, want in (((path.T @ flat).reshape(a.shape), path_sums_oracle(model, a)),
                          ((path @ flat).reshape(a.shape), subtree_sums_oracle(model, a))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@PROPERTY_SETTINGS
@given(chain_states())
def test_stacked_brackets_match_per_body_brackets(case):
    # the gathered brackets [x, y] and co-brackets ad(x)^T p against
    # se3.lie_bracket and ad(x)^T p body by body; [x, x] is exactly zero
    model, q, qd, _, _, wb = case
    x = _frame_table(model, *_fk_stacks(model, q), "spatial").screws * qd[:, None]
    y, p = wb, wb[:, ::-1]
    got_b, got_c = _brackets(x, np.concatenate((y, p), axis=1))
    want_b = np.array([lie_bracket(x[i], y[i]) for i in range(model.n)])
    want_c = np.array([ad_matrix(x[i]).T @ p[i] for i in range(model.n)])
    for got, want in ((got_b, want_b), (got_c, want_c)):
        assert got.shape == (model.n, 6)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for a in (x, wb):
        assert not _brackets(a, np.concatenate((a, p), axis=1))[0].any()


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
