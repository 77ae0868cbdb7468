"""Shared builders for randomized chains and reference models."""

import numpy as np
import pytest

from screwchain import se3
from screwchain.model import BodyModel, ChainModel, JointModel, Pose, spatial_inertia_body
from screwchain.se3 import adjoint, adjoint_rot, adjoint_trans, exp_se3, hat3, screw


def rand_rotation(rng, max_angle=2.5):
    w = rng.normal(size=3)
    w *= rng.uniform(0.0, max_angle) / np.linalg.norm(w)
    return se3.exp_so3(w)


def rand_inertia(rng):
    # principal moments (a+b, b+c, c+a) always satisfy the triangle
    # inequality; rotate into a random frame
    a, b, c = rng.uniform(0.05, 1.0, size=3)
    r = rand_rotation(rng)
    return r @ np.diag([a + b, b + c, c + a]) @ r.T


def random_chain(rng, n, tree=False, kinds=("revolute", "prismatic", "helical"),
                 identity_ref=False, gravity=(0.0, 0.0, -9.80665)):
    bodies, joints, parents = [], [], []
    for i in range(n):
        parent = i - 1 if (not tree or i == 0) else int(rng.integers(-1, i))
        if identity_ref:
            ref = Pose.identity()
        else:
            ref = Pose(rand_rotation(rng), rng.normal(size=3) * 0.5)
        bodies.append(BodyModel(rng.uniform(0.5, 3.0), rng.normal(size=3) * 0.3,
                                rand_inertia(rng), ref))
        kind = kinds[int(rng.integers(0, len(kinds)))]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        joints.append(JointModel(
            kind, axis=axis, point=rng.normal(size=3),
            pitch=float(rng.uniform(0.05, 0.4)) if kind == "helical" else 0.0,
            frame="spatial" if rng.random() < 0.5 else "body"))
        parents.append(parent)
    return ChainModel(bodies, joints, parents, gravity=gravity)


def fk_spatial_oracle(model, q):
    """Absolute body poses as the ordered product of joint exponentials
    in spatial screw coordinates, times the reference poses: a product
    independent of the package's body-fixed one."""
    q = np.asarray(q, dtype=float).reshape(model.n)
    exp_prod = []
    for i in range(model.n):
        step = exp_se3(model.joints[i].screw_spatial * q[i])
        p = model.parent[i]
        exp_prod.append(step if p < 0 else exp_prod[p] @ step)
    return [exp_prod[i] @ model.bodies[i].ref_pose for i in range(model.n)]


class JacobianOracle:
    """The system Jacobian built pair by pair, independently of the
    package's one map per body: block (i, j) is
    Ad(C_i^-1 C_j) X_j (body), Ad(C_j) X_j (spatial) or
    Ad(r_j - r_i) Ad(R_j) X_j (hybrid, and mixed with the angular rows
    rotated by R_i^T), with the A and X factors of J = A X; mixed X holds
    the hybrid joint screws."""

    def __init__(self, model, q, rep):
        n = model.n
        poses = fk_spatial_oracle(model, q)
        self.J = np.zeros((6 * n, n))
        self.A = np.zeros((6 * n, 6 * n))
        self.X = np.zeros((6 * n, n))
        xb = [joint.screw_body for joint in model.joints]
        spatial = [adjoint(poses[j]) @ xb[j] for j in range(n)]
        hybrid = [adjoint_rot(poses[j].rot) @ xb[j] for j in range(n)]
        for i in range(n):
            for j in model.path(i):
                if rep == "body":
                    blk = adjoint(poses[i].inverse() @ poses[j])
                    col = blk @ xb[j]
                elif rep == "spatial":
                    blk = np.eye(6)
                    col = spatial[j]
                else:
                    blk = adjoint_trans(poses[j].trans - poses[i].trans)
                    col = blk @ hybrid[j]
                self.J[6 * i:6 * i + 6, j] = col
                self.A[6 * i:6 * i + 6, 6 * j:6 * j + 6] = blk
        for j in range(n):
            self.X[6 * j:6 * j + 6, j] = {"body": xb, "spatial": spatial}.get(rep, hybrid)[j]
        if rep == "mixed":
            for i in range(n):
                rt = poses[i].rot.T
                self.J[6 * i:6 * i + 3, :] = rt @ self.J[6 * i:6 * i + 3, :]
                self.A[6 * i:6 * i + 3, :] = rt @ self.A[6 * i:6 * i + 3, :]

    def column(self, i, j):
        return self.J[6 * i:6 * i + 6, j]


def _body_to_rep(pose, rep):
    """B: the map from body into ``rep`` coordinates of a screw attached
    to a body at ``pose``, by its textbook definition."""
    return {"body": np.eye(6), "spatial": adjoint(pose),
            "hybrid": adjoint_rot(pose.rot)}[rep]


def instantaneous_screws_oracle(model, poses, rep):
    """Joint screws B_j X_j of each joint in ``rep``, one at a time."""
    return np.array([_body_to_rep(poses[j], rep) @ model.joints[j].screw_body
                     for j in range(model.n)])


def inertias_oracle(model, poses, rep):
    """Inertias B^-T M B^-1 in ``rep``, one body at a time, with B
    inverted numerically and M built from the body's mass properties."""
    out = []
    for body, pose in zip(model.bodies, poses):
        b_inv = np.linalg.inv(_body_to_rep(pose, rep))
        out.append(b_inv.T @ spatial_inertia_body(body).matrix @ b_inv)
    return np.array(out)


def gravity_wrenches_oracle(model, poses, rep):
    """Weight of each body authored in hybrid form, the force f = m g at
    the COM with its moment d x f about the body origin (d the COM offset
    in inertial axes), and converted into ``rep``: rotated into body axes,
    or its moment taken about the inertial origin."""
    out = []
    for body, pose in zip(model.bodies, poses):
        f = body.mass * model.gravity
        moment = np.cross(pose.rot @ body.com_offset, f)
        if rep == "body":
            out.append(screw(pose.rot.T @ moment, pose.rot.T @ f))
        elif rep == "spatial":
            out.append(screw(moment + np.cross(pose.trans, f), f))
        else:
            out.append(screw(moment, f))
    return np.array(out)


def parent_transforms_oracle(model, poses, rels, rep):
    """Transforms of each parent's twist into a non-root body's ``rep``
    coordinates, ``rep`` body or hybrid: Ad(rel_i^-1) or the translation
    by r_p - r_i; None for roots."""
    out = []
    for i, p in enumerate(model.parent):
        if p < 0:
            out.append(None)
        elif rep == "body":
            out.append(adjoint(rels[i].inverse()))
        else:
            out.append(adjoint_trans(poses[p].trans - poses[i].trans))
    return out


def spatial_backward_oracle(model, twists, accels, inertias, screws, ext, rep="spatial",
                            transforms=None):
    """The Newton-Euler backward sweep body by body: each body's balance
    :func:`ne_wrench` in ``rep`` less its load joins the wrenches of its
    children, is projected on its joint screw and passed to its parent,
    unchanged in spatial form and by ``transforms[i]`` transposed
    (:func:`parent_transforms_oracle`) in body and hybrid form.
    Returns (joint forces, joint wrenches)."""
    from screwchain.dynamics import ne_wrench

    n = model.n
    W, Q = np.zeros((n, 6)), np.zeros(n)
    for i in range(n - 1, -1, -1):
        W[i] += ne_wrench(twists[i], accels[i], inertias[i], rep) - ext[i]
        Q[i] = screws[i] @ W[i]
        p = model.parent[i]
        if p >= 0:
            W[p] += W[i] if rep == "spatial" else transforms[i].T @ W[i]
    return Q, W


def inertia_readout_oracle(gravity):
    """The (16, 42) readout of :func:`screwchain.model.inertia_readout`
    entry by entry: for each unit 4x4 matrix E_k, the 6x6 inertia
    [[tr(S) I - S, [h]x], [-[h]x, m I]] and the gravity wrench (h x g, m g)
    of its symmetric part J = [[S, h], [h^T, m]]."""
    g = np.asarray(gravity, dtype=float).reshape(3)
    out = np.zeros((16, 7, 6))
    for k, unit in enumerate(np.eye(16).reshape(16, 4, 4)):
        j = 0.5 * (unit + unit.T)
        s, h, m = j[:3, :3], j[:3, 3], j[3, 3]
        out[k, :3, :3] = np.trace(s) * np.eye(3) - s
        out[k, :3, 3:] = hat3(h)
        out[k, 3:6, :3] = -hat3(h)
        out[k, 3:6, 3:] = m * np.eye(3)
        out[k, 6] = np.concatenate([np.cross(h, g), m * g])
    return out.reshape(16, 42)


def spatial_sweep_oracle(model, screws, qd, qdd=None):
    """Spatial (twists, accelerations) by the forward recursion, body by
    body from the roots: V_i = V_p + js_i qd_i and, as d/dt js_i =
    [V_p, js_i], Vdot_i = Vdot_p + [V_p, V_i] + js_i qdd_i, for the spatial
    joint screws js of a frame table (qdd None is zero)."""
    from screwchain.se3 import lie_bracket

    qdd = np.zeros(model.n) if qdd is None else qdd
    V, Vd = screws * qd[:, None], screws * qdd[:, None]
    for i, p in enumerate(model.parent):
        if p >= 0:
            V[i] += V[p]
            Vd[i] += Vd[p] + lie_bracket(V[p], V[i])
    return V, Vd


def jerk_recursion_oracle(model, state, rep):
    """Jerks by the jerk-level forward recursion, body by body: each jerk
    the time derivative of the acceleration recursion (which gives the
    twists V and accelerations Vd here: ``kinematics._forward_sweep`` in
    body and hybrid form, :func:`spatial_sweep_oracle` in spatial form) on
    top of the parent's jerk, with per-body brackets; mixed is the hybrid
    recursion with its angular part rotated by R^T."""
    from screwchain.kinematics import _fk_stacks, _forward_sweep, _frame_table
    from screwchain.se3 import lie_bracket

    work = "hybrid" if rep == "mixed" else rep
    frames = _frame_table(model, *_fk_stacks(model, state.q), work)
    if work == "spatial":
        V, Vd = spatial_sweep_oracle(model, frames.screws, state.qd, state.qdd)
    else:
        cache = _forward_sweep(model, frames, state, 1)
        V, Vd = cache.twists, cache.accels
    x, xf = frames.screws, frames.parent
    qd, qdd, qddd = state.qd, state.qdd, state.qddd
    zero3 = np.zeros(3)
    Vdd = np.zeros((model.n, 6))
    for i, p in enumerate(model.parent):
        Vdd[i] = x[i] * qddd[i]
        if work == "body":
            # xf[i] = Ad(rel_i^-1), d/dt Ad(rel_i^-1) = -qd_i ad(X_i) Ad(rel_i^-1)
            if p >= 0:
                vd_p = xf[i] @ Vd[p]
                Vdd[i] += (xf[i] @ Vdd[p] - qdd[i] * lie_bracket(x[i], V[i])
                           - qd[i] * lie_bracket(x[i], vd_p + Vd[i]))
        elif work == "spatial":
            # d/dt X^s_i = [V_p, X^s_i]
            if p >= 0:
                Vdd[i] += (Vdd[p] + lie_bracket(Vd[p], V[i])
                           + lie_bracket(V[p], Vd[i] + qdd[i] * x[i]))
        else:  # hybrid: d/dt X^h_i = [omega_i, X^h_i], d/dt Ad(r) = ad(r-dot)
            omega_i = screw(V[i][:3], zero3)
            wx = lie_bracket(omega_i, x[i])
            Vdd[i] += (2.0 * qdd[i] * wx
                       + qd[i] * (lie_bracket(screw(Vd[i][:3], zero3), x[i])
                                  + lie_bracket(omega_i, wx)))
            if p >= 0:
                rdot_rel = screw(zero3, V[p][3:] - V[i][3:])
                rddot_rel = screw(zero3, Vd[p][3:] - Vd[i][3:])
                Vdd[i] += (xf[i] @ Vdd[p] + 2.0 * lie_bracket(rdot_rel, Vd[p])
                           + lie_bracket(rddot_rel, V[p]))
    if rep == "mixed":
        Vdd[:, :3] = np.einsum("nji,nj->ni", frames.poses.rot, Vdd[:, :3])
    return Vdd


def subtree_sums_oracle(model, a):
    """a[i] summed over the subtree rooted at body i, leaves to roots."""
    out = np.array(a, dtype=float)
    for i in range(model.n - 1, -1, -1):
        if model.parent[i] >= 0:
            out[model.parent[i]] += out[i]
    return out


def path_sums_oracle(model, a):
    """a[i] summed over the path from the root down to body i."""
    out = np.array(a, dtype=float)
    for i in range(model.n):
        if model.parent[i] >= 0:
            out[i] += out[model.parent[i]]
    return out


def pass_potential_oracle(cfg):
    """Potential energy -g . sum h_i of a configuration pass, h_i = m_i r_com_i
    the first moment of body i's pseudo-inertia in its frame table."""
    return -float(cfg.model.gravity @ cfg.frames.pseudo[:, :3, 3].sum(axis=0))


def pass_total_momentum_oracle(cfg, qd):
    """The spatial momentum of all bodies, sum_i M^s_i V^s_i, from a
    configuration pass: each joint's rate times the momentum Ic_k js_k of
    its subtree per unit rate."""
    return np.asarray(qd, dtype=float).reshape(cfg.model.n) @ cfg.icjs


def step_report_oracle(model, q, qd, pis=None, gravity=True):
    """(energy, total momentum, constraint drift, momentum residual) of one
    chain-simulation sample, formed on its own as each sample once formed
    its report: from the configuration pass at q, the kinetic energy
    qd . M qd / 2 plus the potential, the total momentum, the largest
    |R^T R - I| of a body rotation and, given the integrated momenta
    ``pis``, the largest |Pi_i - M^s_i V^s_i(qd)| (NaN without)."""
    from screwchain.dynamics import _Configuration

    cfg = _Configuration(model, q)
    energy = 0.5 * float(qd @ cfg.mass @ qd)
    if gravity:
        energy += pass_potential_oracle(cfg)
    rot = cfg.frames.poses.rot
    d = np.swapaxes(rot, -1, -2) @ rot - np.eye(3)
    drift = float(np.sqrt((d * d).sum(axis=(-2, -1)).max()))
    residual = (np.nan if pis is None else float(np.linalg.norm(
        np.reshape(pis, (model.n, 6)) - cfg.momenta(qd), axis=1).max()))
    return energy, pass_total_momentum_oracle(cfg, qd), drift, residual


PLANAR_2R = dict(m1=1.1, m2=0.9, l1=1.0, lc1=0.55, lc2=0.45, I1=0.055, I2=0.031,
                 g=9.80665)


def planar_2r_model(g=PLANAR_2R["g"]):
    """The bundled planar 2R geometry built programmatically (joint-local
    authoring; the JSON sample uses the frames-on-IFR style — same physics)."""
    p = PLANAR_2R
    eps = 1e-3
    bodies = [
        BodyModel(p["m1"], [p["lc1"], 0, 0],
                  np.diag([0.6 * p["I1"] + eps, 0.6 * p["I1"] + eps, p["I1"]]),
                  Pose(np.eye(3), [0, 0, 0])),
        BodyModel(p["m2"], [p["lc2"], 0, 0],
                  np.diag([0.6 * p["I2"] + eps, 0.6 * p["I2"] + eps, p["I2"]]),
                  Pose(np.eye(3), [p["l1"], 0, 0])),
    ]
    joints = [
        JointModel("revolute", axis=[0, 0, 1], point=[0, 0, 0], frame="spatial"),
        JointModel("revolute", axis=[0, 0, 1], point=[p["l1"], 0, 0], frame="spatial"),
    ]
    return ChainModel(bodies, joints, [-1, 0], gravity=(0.0, -g, 0.0))


def planar_2r_lagrangian_torque(q, qd, qdd, g=PLANAR_2R["g"]):
    """Independent textbook closed form for the planar 2R arm, derived from
    the Lagrangian with absolute link angles q1, q1+q2 measured from +x and
    gravity along -y."""
    p = PLANAR_2R
    m1, m2, l1, lc1, lc2, i1, i2 = (p[k] for k in
                                    ("m1", "m2", "l1", "lc1", "lc2", "I1", "I2"))
    q1, q2 = q
    qd1, qd2 = qd
    qdd1, qdd2 = qdd
    c2, s2 = np.cos(q2), np.sin(q2)
    a11 = i1 + i2 + m1 * lc1**2 + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * c2)
    a12 = i2 + m2 * (lc2**2 + l1 * lc2 * c2)
    a22 = i2 + m2 * lc2**2
    hh = m2 * l1 * lc2 * s2
    g1 = (m1 * lc1 + m2 * l1) * g * np.cos(q1) + m2 * lc2 * g * np.cos(q1 + q2)
    g2 = m2 * lc2 * g * np.cos(q1 + q2)
    return np.array([
        a11 * qdd1 + a12 * qdd2 - hh * (2 * qd1 * qd2 + qd2**2) + g1,
        a12 * qdd1 + a22 * qdd2 + hh * qd1**2 + g2,
    ])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
