import re

import numpy as np
import pytest
from scipy.special import ellipk

from screwchain import dynamics, integrators, kinematics, se3
from screwchain.integrators import (
    REPORT_CHUNK, RigidBodyState, chain_simulate, free_body_simulate, mk_step,
)
from screwchain.model import BodyModel, ChainModel, JointModel, load_model, spatial_inertia_body
from screwchain.samples import sample_model_path
from screwchain.se3 import Pose, adjoint, exp_se3, log_se3, screw

from conftest import random_chain, step_report_oracle


def pendulum_model(mass=1.3, length=0.8, izz=0.02, g=9.80665):
    bodies = [BodyModel(mass, [length, 0, 0],
                        np.diag([0.7 * izz + 1e-4, 0.7 * izz + 1e-4, izz]))]
    joints = [JointModel("revolute", axis=[0, 0, 1], point=[0, 0, 0])]
    return ChainModel(bodies, joints, [-1], gravity=(0.0, -g, 0.0)), \
        dict(mass=mass, length=length, izz=izz, g=g)


# ------------------------------------------------------------------ mk_step

def test_mk_step_exact_on_constant_twists(rng):
    worst = 0.0
    for _ in range(20):
        v = rng.normal(size=6)
        pose = Pose(se3.exp_so3(rng.normal(size=3) * 0.6), rng.normal(size=3))
        for h in (0.1, 0.05, 0.02, 0.003):
            out = mk_step(RigidBodyState(pose, v, "body"), lambda t, p: v, h)
            exact = pose @ exp_se3(h * v)
            worst = max(worst, np.abs(out.pose.matrix() - exact.matrix()).max())
            out = mk_step(RigidBodyState(pose, v, "spatial"), lambda t, p: v, h)
            exact = exp_se3(h * v) @ pose
            worst = max(worst, np.abs(out.pose.matrix() - exact.matrix()).max())
    assert worst < 1e-13


def test_mk_step_zero_field_is_identity(rng):
    pose = Pose(se3.exp_so3(rng.normal(size=3)), rng.normal(size=3))
    out = mk_step(RigidBodyState(pose, np.zeros(6), "body"),
                  lambda t, p: np.zeros(6), 0.05)
    assert np.array_equal(out.pose.matrix(), pose.matrix())


def _integrate_field(h, T, rep):
    def field(t, pose):
        return np.array([0.8 * np.sin(2.1 * t), 1.1 * np.cos(1.3 * t), 0.5,
                         0.9 * np.sin(t), -0.6, 0.7 * np.cos(3.0 * t)])

    state = RigidBodyState(Pose.identity(), field(0.0, None), rep)
    steps = int(round(T / h))
    for k in range(steps):
        state = mk_step(state, field, h, t=k * h)
    return state.pose


@pytest.mark.parametrize("rep", ["body", "spatial"])
def test_mk_step_fourth_order_convergence(rep):
    ref = _integrate_field(1.0 / 2048, 1.0, rep)
    errs = []
    for h in (1.0 / 8, 1.0 / 16, 1.0 / 32):
        pose = _integrate_field(h, 1.0, rep)
        errs.append(np.linalg.norm(log_se3(ref.inverse() @ pose)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for order in orders:
        assert abs(order - 4.0) < 0.1


def test_mk_step_pose_stays_orthonormal(rng):
    def field(t, pose):
        return np.array([0.9, -0.4, 0.7, 0.2, 0.1, -0.3])

    state = RigidBodyState(Pose.identity(), field(0, None), "body")
    for k in range(2000):
        state = mk_step(state, field, 5e-3, t=k * 5e-3)
    drift = np.linalg.norm(state.pose.rot.T @ state.pose.rot - np.eye(3))
    assert drift < 1e-10


def test_mk_step_validates_no_pose(monkeypatch):
    # every pose a step builds is derived from valid ones, so none goes
    # through the validation of Pose(...)
    state = RigidBodyState(Pose(se3.exp_so3([0.3, 0.1, -0.2]), [1.0, 0.5, -0.3]),
                           [0.3, -0.2, 0.5, 1.0, 2.0, -3.0], "spatial")
    validated = []
    check = Pose.__post_init__
    monkeypatch.setattr(Pose, "__post_init__", lambda self: validated.append(check(self)))
    for rep in ("body", "spatial"):
        mk_step(RigidBodyState(state.pose, state.twist, rep), lambda t, p: state.twist, 0.1)
    assert validated == []


@pytest.mark.parametrize("rep", ["body", "spatial"])
def test_mk_step_evaluates_the_field_four_times_per_step(rep):
    # the first stage is the state's twist, the field's value where the
    # last step ended; RK4 needs the other three stages and the end twist
    calls = []

    def field(t, pose):
        calls.append(t)
        return np.array([0.3, -0.2, 0.5, 1.0, 2.0, -3.0]) * (1.0 + t)

    state = RigidBodyState(Pose.identity(), field(0.0, None), rep)
    calls.clear()
    for k in range(3):
        state = mk_step(state, field, 0.1, t=k * 0.1)
    assert len(calls) == 12
    assert np.allclose(calls, [0.05, 0.05, 0.1, 0.1, 0.15, 0.15, 0.2, 0.2,
                               0.25, 0.25, 0.3, 0.3], rtol=0.0, atol=1e-15)


def test_free_body_twist_is_the_field_at_a_reprojected_pose(monkeypatch):
    # after a re-projection the state carries the field's twist at the new
    # pose, which the next step's first stage reads; a projection that
    # visibly turns the pose shows the twist following it
    monkeypatch.setattr(integrators, "REORTHONORMALIZE_EVERY", 2)
    turn = exp_se3([0.0, 0.0, 0.3, 0.0, 0.0, 0.0])
    monkeypatch.setattr(Pose, "orthonormalized", lambda self: self @ turn)
    body = BodyModel(2.0, [0.1, -0.05, 0.2], np.diag([0.4, 0.5, 0.3]))
    init = RigidBodyState(Pose.identity(), [0.3, -0.2, 0.5, 1.0, 2.0, -3.0], "spatial")
    traj = free_body_simulate(body, init, T=0.01, h=1e-3)
    m_inv = np.linalg.inv(spatial_inertia_body(body).matrix)
    pi = traj.reports[0].momentum_spatial
    for pose, twist in zip(traj.poses, traj.twists_spatial):
        ad = adjoint(pose)
        assert np.abs(twist - ad @ (m_inv @ (ad.T @ pi))).max() < 1e-12


def test_rigid_body_state_rejects_non_finite_twist_and_copies_it():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^RigidBodyState: rotation is not finite, "
                                             rf"got twist\[0\] = {bad}$"):
            RigidBodyState(Pose.identity(), [bad, 0.0, 0.0, 0.0, 0.0, 0.0])
    v = np.ones(6)
    state = RigidBodyState(Pose.identity(), v)
    v[0] = 5.0
    assert state.twist[0] == 1.0 and not state.twist.flags.writeable
    # a field that turns NaN stops the step instead of returning a NaN state
    for after in (0.0, 0.1):
        def field(t, pose):
            return np.full(6, np.nan) if t >= after else np.ones(6)

        with pytest.raises(ValueError, match="not finite|must be finite"):
            mk_step(RigidBodyState(Pose.identity(), np.ones(6)), field, 0.1)


# ---------------------------------------------------------------- free body

def test_free_body_principal_spin_is_uniform(rng):
    body = BodyModel(1.0, [0, 0, 0], np.diag([0.2, 0.3, 0.5]))
    w = np.array([0.0, 0.0, 1.4])
    init = RigidBodyState(Pose.identity(), screw(w, np.zeros(3)), "body")
    traj = free_body_simulate(body, init, T=2.0, h=1e-3)
    for idx in (500, 1500, 2000):
        vb = np.linalg.solve(adjoint(traj.poses[idx]), traj.twists_spatial[idx])
        assert np.allclose(vb[:3], w, atol=1e-12)


def test_free_body_symmetric_top_matches_analytic():
    theta_t, theta_a = 0.4, 0.7
    body = BodyModel(1.5, [0, 0, 0], np.diag([theta_t, theta_t, theta_a]))
    w0 = np.array([0.6, 0.0, 1.2])
    init = RigidBodyState(Pose.identity(), screw(w0, np.zeros(3)), "body")
    traj = free_body_simulate(body, init, T=10.0, h=1e-3)
    lam = (theta_a / theta_t - 1.0) * w0[2]
    worst = 0.0
    for idx in range(0, len(traj.times), 250):
        t = traj.times[idx]
        vb = np.linalg.solve(adjoint(traj.poses[idx]), traj.twists_spatial[idx])
        expect = np.array([w0[0] * np.cos(lam * t) - w0[1] * np.sin(lam * t),
                           w0[0] * np.sin(lam * t) + w0[1] * np.cos(lam * t),
                           w0[2]])
        worst = max(worst, np.abs(vb[:3] - expect).max())
    assert worst < 1e-6


def test_free_body_conserves_spatial_momentum_and_energy(rng):
    body = BodyModel(2.0, [0.1, -0.05, 0.2], np.diag([0.4, 0.5, 0.3]))
    init = RigidBodyState(Pose(se3.exp_so3([0.3, 0.1, -0.2]), [1.0, 0.5, -0.3]),
                          rng.normal(size=6), "spatial")
    traj = free_body_simulate(body, init, T=3.0, h=1e-3)
    pi0 = traj.reports[0].momentum_spatial
    e0 = traj.reports[0].energy
    for rep in traj.reports:
        assert np.linalg.norm(rep.momentum_spatial - pi0) <= 1e-12
        assert abs(rep.energy - e0) < 1e-9
        assert rep.constraint_drift < 1e-10


# -------------------------------------------------------------------- chain

def test_chain_equilibrium_is_stationary():
    model, _ = pendulum_model()
    traj = chain_simulate(model, [-np.pi / 2], [0.0], T=0.5, h=1e-3)
    assert np.abs(traj.q + np.pi / 2).max() < 1e-12
    assert np.abs(traj.qd).max() < 1e-12


def test_chain_energy_drift_unforced(rng):
    model = random_chain(rng, 3, gravity=(0, 0, 0))
    q0, qd0 = rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5
    traj = chain_simulate(model, q0, qd0, T=1.0, h=1e-3, gravity=False)
    e0 = traj.reports[0].energy
    assert max(abs(r.energy - e0) for r in traj.reports) <= 1e-8


def test_chain_fourth_order_convergence(rng):
    model = random_chain(rng, 2, kinds=("revolute",))
    q0, qd0 = np.array([0.4, -0.3]), np.array([2.0, -1.5])

    def endpoint(h):
        return chain_simulate(model, q0, qd0, T=1.0, h=h).q[-1]

    ref = endpoint(1.0 / 2048)
    errs = [np.linalg.norm(endpoint(h) - ref) for h in (1 / 16, 1 / 32, 1 / 64)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for order in orders:
        assert abs(order - 4.0) < 0.1


def test_pendulum_period_matches_elliptic_integral():
    model, p = pendulum_model()
    amplitude = 0.8
    i_tot = p["izz"] + p["mass"] * p["length"] ** 2
    w0sq = p["mass"] * p["g"] * p["length"] / i_tot
    period = 4.0 / np.sqrt(w0sq) * ellipk(np.sin(amplitude / 2) ** 2)
    traj = chain_simulate(model, [-np.pi / 2 + amplitude], [0.0],
                          T=1.15 * period, h=1e-3)
    crossings = _qd_zero_crossings(traj)
    measured = 2.0 * (crossings[1] - crossings[0])
    assert abs(measured - period) / period < 1e-5


def _qd_zero_crossings(traj):
    """Zero crossings of the first joint rate, cubic-Hermite refined."""
    t, qd, qdd = traj.times, traj.qd[:, 0], traj.qdd[:, 0]
    out = []
    for k in range(1, len(t)):
        if qd[k - 1] == 0.0 or qd[k - 1] * qd[k] > 0.0:
            continue
        h = t[k] - t[k - 1]
        s = qd[k - 1] / (qd[k - 1] - qd[k])
        for _ in range(30):
            h00 = 2 * s**3 - 3 * s**2 + 1
            h10 = s**3 - 2 * s**2 + s
            h01 = -2 * s**3 + 3 * s**2
            h11 = s**3 - s**2
            val = (h00 * qd[k - 1] + h10 * h * qdd[k - 1]
                   + h01 * qd[k] + h11 * h * qdd[k])
            dval = ((6 * s**2 - 6 * s) * qd[k - 1]
                    + (3 * s**2 - 4 * s + 1) * h * qdd[k - 1]
                    + (-6 * s**2 + 6 * s) * qd[k]
                    + (3 * s**2 - 2 * s) * h * qdd[k])
            step = val / dval
            s -= step
            if abs(step) < 1e-15:
                break
        out.append(t[k - 1] + s * h)
    return out


def test_state_and_momentum_forms_agree(rng):
    model = random_chain(rng, 3)
    q0, qd0 = rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5
    a = chain_simulate(model, q0, qd0, T=1.0, h=1e-3)
    b = chain_simulate(model, q0, qd0, T=1.0, h=1e-3, form="momentum")
    assert np.abs(a.q - b.q).max() < 1e-6
    assert np.abs(a.qd - b.qd).max() < 1e-6


@pytest.mark.parametrize("form", ["state", "momentum"])
def test_recorded_samples_match_public_functions(rng, form):
    # every sample's qdd, energy and total spatial momentum (and, in the
    # momentum form, its recovered qd) equal the public functions
    # evaluated at the stored (q, qd); the chain trades momentum with the
    # ground through the base joint, so the momentum need not be constant
    from screwchain.dynamics import (
        fdyn, gravity_potential, kinetic_energy, momentum_rhs, spatial_momenta,
    )

    model = random_chain(rng, 3, tree=True)
    q0, qd0 = rng.normal(size=3) * 0.4, rng.normal(size=3) * 0.4

    def torque(t, q, qd):
        return np.array([np.sin(3.0 * t), -0.5, 0.2]) - 0.3 * qd

    traj = chain_simulate(model, q0, qd0, torque=torque, T=0.05, h=1e-3, form=form)
    assert traj.abort_reason is None and len(traj.reports) == len(traj.times) == 51
    got = {"qdd": traj.qdd, "energy": [r.energy for r in traj.reports],
           "momentum": [r.momentum_spatial for r in traj.reports]}
    expect = {key: [] for key in got}
    if form == "momentum":
        got["qd"], expect["qd"] = traj.qd, []
    for t, q, qd in zip(traj.times, traj.q, traj.qd):
        pis = spatial_momenta(model, q, qd)
        expect["qdd"].append(fdyn(model, q, qd, torque(t, q, qd)))
        expect["energy"].append(kinetic_energy(model, q, qd) + gravity_potential(model, q))
        expect["momentum"].append(pis.sum(axis=0))
        if form == "momentum":
            expect["qd"].append(momentum_rhs(model, q, pis)[1])
    for key, value in got.items():
        ref = np.array(expect[key])
        assert np.abs(np.array(value) - ref).max() <= 1e-12 * np.abs(ref).max(), key


def _all_kinds_tree(rng, n=5):
    """A random tree with at least one revolute, prismatic and helical joint."""
    while True:
        model = random_chain(rng, n, tree=True)
        if len({joint.kind for joint in model.joints}) == 3:
            return model


def _simulate_with_momenta(monkeypatch, model, q0, qd0, **kwargs):
    """chain_simulate and the integrated state of every sample it kept:
    the initial one, then each RK4 step's result."""
    states = [np.concatenate([q0, qd0 if kwargs.get("form", "state") == "state"
                              else dynamics.spatial_momenta(model, q0, qd0).ravel()])]
    rk4 = integrators._rk4

    def recorded(*args):
        states.append(rk4(*args))
        return states[-1]

    monkeypatch.setattr(integrators, "_rk4", recorded)
    traj = chain_simulate(model, q0, qd0, **kwargs)
    return traj, states[:len(traj.times)]


def _assert_reports_match_oracle(model, traj, states, gravity=True):
    # each field within 1e-12 of its largest oracle entry; the drift and
    # the residual are formed by the same products and so match exactly
    n = model.n
    expect = [step_report_oracle(model, q, qd, None if traj.form == "state" else y[n:],
                                 gravity)
              for q, qd, y in zip(traj.q, traj.qd, states)]
    got = [(r.energy, r.momentum_spatial, r.constraint_drift, r.momentum_residual)
           for r in traj.reports]
    assert [r.t for r in traj.reports] == list(traj.times)
    for field, name in enumerate(("energy", "momentum", "drift", "residual")):
        want = np.array([e[field] for e in expect])
        have = np.array([g[field] for g in got])
        if name == "residual" and traj.form == "state":
            assert np.all(np.isnan(have))
            continue
        scale = np.abs(want).max()
        assert np.abs(have - want).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("form", ["state", "momentum"])
@pytest.mark.parametrize("chunk, steps", [(8, 4), (8, 7), (8, 20), (REPORT_CHUNK, 300)])
def test_chunked_reports_match_per_sample_oracle(rng, monkeypatch, form, chunk, steps):
    # runs shorter than, as long as and longer than one chunk of reports,
    # with torques and applied wrenches, on a tree with all three joint kinds
    monkeypatch.setattr(integrators, "REPORT_CHUNK", chunk)
    model = _all_kinds_tree(rng)
    applied = rng.normal(size=(model.n, 6))
    traj, states = _simulate_with_momenta(
        monkeypatch, model, rng.normal(size=model.n) * 0.4, rng.normal(size=model.n) * 0.4,
        torque=lambda t, q, qd: np.sin(7.0 * t) - 0.4 * qd, T=steps * 1e-3, h=1e-3,
        form=form, applied=applied)
    assert traj.abort_reason is None and len(traj.reports) == steps + 1
    _assert_reports_match_oracle(model, traj, states)


@pytest.mark.parametrize("form", ["state", "momentum"])
@pytest.mark.parametrize("chunk", [8, REPORT_CHUNK])
def test_aborted_run_keeps_per_sample_reports(rng, monkeypatch, form, chunk):
    # a torque that overflows from t = 12.5 ms aborts the run in its second
    # chunk of 8: every kept sample's report is the oracle's; a run whose
    # sample 0 fails keeps that sample with NaN report fields
    monkeypatch.setattr(integrators, "REPORT_CHUNK", chunk)
    model = _all_kinds_tree(rng)

    def torque(t, q, qd):
        return np.full(model.n, 1e308 if t > 12.5e-3 else 0.5) - 0.3 * qd

    traj, states = _simulate_with_momenta(
        monkeypatch, model, rng.normal(size=model.n) * 0.4, rng.normal(size=model.n) * 0.4,
        torque=torque, T=0.03, h=1e-3, form=form)
    assert traj.abort_step == 12 == len(traj.reports) - 1
    assert "overflow" in traj.abort_reason
    _assert_reports_match_oracle(model, traj, states)

    first = chain_simulate(model, np.zeros(model.n), np.full(model.n, 1e200), T=0.03,
                           h=1e-3, form=form)
    assert first.abort_step == 0 and len(first.reports) == 1
    r = first.reports[0]
    assert r.t == 0.0 and np.isnan([r.energy, *r.momentum_spatial, r.constraint_drift,
                                    r.momentum_residual]).all()


@pytest.mark.parametrize("form", ["state", "momentum"])
def test_report_that_overflows_ends_the_kept_samples(monkeypatch, form):
    # a spin about a principal axis that a torque speeds up by 1e153 per
    # step: the dynamics stay finite, but the kinetic energy of sample 4
    # overflows, so the run keeps samples 0 to 3, each with the oracle's
    # report, and names the fault, as a failed step does
    monkeypatch.setattr(integrators, "REPORT_CHUNK", 8)
    model = ChainModel([BodyModel(1.0, [0, 0, 0], np.eye(3))],
                       [JointModel("revolute", axis=[0, 0, 1])], [-1])
    traj, states = _simulate_with_momenta(
        monkeypatch, model, np.zeros(1), np.array([1e154]),
        torque=lambda t, q, qd: [1e156], T=0.01, h=1e-3, form=form, gravity=False)
    assert traj.abort_step == 3 and len(traj.reports) == len(traj.times) == 4
    assert "overflow" in traj.abort_reason
    _assert_reports_match_oracle(model, traj, states, gravity=False)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        step_report_oracle(model, [0.0], [1.4e154], gravity=False)


@pytest.mark.parametrize("form", ["state", "momentum"])
def test_one_configuration_pass_per_rk4_stage(rng, monkeypatch, form):
    # four stages per step and one for the last sample: the samples' qdd
    # and reports (and the momentum form's initial momenta) reuse the pass
    # of the stage at their configuration
    model = random_chain(rng, 3, tree=True)
    built = []
    init = dynamics._Configuration.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(dynamics, "_last_configuration", None, raising=False)
    monkeypatch.setattr(dynamics._Configuration, "__init__", counted)
    steps, h = 10, 1e-3
    traj = chain_simulate(model, rng.normal(size=3), rng.normal(size=3),
                          torque=lambda t, q, qd: -0.5 * qd, T=steps * h, h=h,
                          form=form)
    assert len(traj.times) == steps + 1
    assert len(built) == 4 * steps + 1


def test_only_fdyn_keeps_a_configuration_pass(rng, monkeypatch):
    # mass_matrix, spatial_momenta, momentum_rhs and the momentum form's
    # stages own their passes; fdyn keeps its last one, which a state-form
    # sample reads
    model = random_chain(rng, 3, tree=True)
    q, qd = rng.normal(size=3), rng.normal(size=3)

    def kept():
        return [name for name, value in vars(dynamics).items()
                if isinstance(value, dynamics._Configuration)]

    monkeypatch.setattr(dynamics, "_last_configuration", None)
    dynamics.mass_matrix(model, q)
    dynamics.momentum_rhs(model, q, dynamics.spatial_momenta(model, q, qd))
    chain_simulate(model, q, qd, torque=lambda t, q, qd: -0.5 * qd, T=5e-3, h=1e-3,
                   form="momentum")
    assert kept() == []
    dynamics.fdyn(model, q, qd)
    assert kept() == ["_last_configuration"]


@pytest.mark.parametrize("form", ["state", "momentum"])
def test_torque_runs_once_per_rk4_stage(rng, form):
    # four stages per step and one for the last sample; a sample's qdd
    # comes from its first stage, not from a call of its own
    model = random_chain(rng, 3, tree=True)
    calls = []

    def torque(t, q, qd):
        calls.append(t)
        return -0.5 * qd

    steps, h = 10, 1e-3
    traj = chain_simulate(model, rng.normal(size=3), rng.normal(size=3), torque=torque,
                          T=steps * h, h=h, form=form)
    assert len(traj.times) == steps + 1
    assert len(calls) == 4 * steps + 1


@pytest.mark.parametrize("form", ["state", "momentum"])
def test_sample_qdd_is_its_first_stage_solve(rng, form):
    # a torque that returns a new value on every call: each sample's qdd
    # is fdyn at the torque its first stage received, the first call at
    # the sample's time and configuration
    from screwchain.dynamics import fdyn

    model = random_chain(rng, 3, tree=True)
    calls = []

    def torque(t, q, qd):
        tau = np.array([0.3, -0.2, 0.1]) * len(calls) - 0.5 * qd
        calls.append((t, np.copy(q), tau))
        return tau

    steps, h = 10, 1e-3
    traj = chain_simulate(model, rng.normal(size=3), rng.normal(size=3), torque=torque,
                          T=steps * h, h=h, form=form)
    assert traj.abort_reason is None and len(traj.times) == steps + 1
    for k, (t, q, qd, qdd) in enumerate(zip(traj.times, traj.q, traj.qd, traj.qdd)):
        tau = next(tau for t_, q_, tau in calls if t_ == t and np.array_equal(q_, q))
        expect = fdyn(model, q, qd, tau)
        assert np.abs(qdd - expect).max() <= 1e-12 * np.abs(expect).max(), k


def _count_sweeps_and_factors(rng, monkeypatch, form, steps=10, h=1e-3):
    """Forward sweeps, backward sweeps and Cholesky factors of a run of
    ``steps`` steps in ``form``."""
    model = random_chain(rng, 3, tree=True)
    counts = {"forward": 0, "backward": 0, "factors": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dynamics, "_last_configuration", None, raising=False)
    monkeypatch.setattr(kinematics, "_forward_sweep",
                        counted("forward", kinematics._forward_sweep))
    monkeypatch.setattr(dynamics, "_backward_sweep",
                        counted("backward", dynamics._backward_sweep))
    monkeypatch.setattr(np.linalg, "cholesky", counted("factors", np.linalg.cholesky))
    traj = chain_simulate(model, rng.normal(size=3), rng.normal(size=3),
                          torque=lambda t, q, qd: -0.5 * qd, T=steps * h, h=h,
                          form=form)
    assert len(traj.times) == steps + 1
    return counts


def test_one_bias_sweep_and_one_factor_per_momentum_stage(rng, monkeypatch):
    # the recovery of qd and the stage's qdd share one Cholesky factor,
    # each sample's qdd is the bias solve its first stage kept, and the
    # bias reads the closed-form motion of the pass, not a forward sweep
    counts = _count_sweeps_and_factors(rng, monkeypatch, "momentum")
    assert counts == {"forward": 0, "backward": 4 * 10 + 1, "factors": 4 * 10 + 1}
    assert not hasattr(dynamics, "_forward_sweep")


def test_one_bias_sweep_and_one_factor_per_state_stage(rng, monkeypatch):
    counts = _count_sweeps_and_factors(rng, monkeypatch, "state")
    assert counts == {"forward": 0, "backward": 4 * 10 + 1, "factors": 4 * 10 + 1}


def _rk4_oracle(f, times, y0):
    """Plain classical RK4 of y' = f(t, y) over the sample times."""
    ys = [np.asarray(y0, dtype=float)]
    for t, t_next in zip(times[:-1], times[1:]):
        h, y = t_next - t, ys[-1]
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        ys.append(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return ys


class _RecursiveDynamics:
    """Forward dynamics and momentum rates from the recursive sweeps
    alone: M's columns are body idyn(q, 0, e_k) without gravity, qdd =
    M^-1 (tau - idyn(q, qd, 0)) with gravity and the applied body
    wrenches, the spatial Jacobian's columns are the spatial twists of
    the unit rates e_k, and each momentum rate is the spatial balance of
    its body at the twists and accelerations of the recursive spatial
    sweep, its inertia Ad(C^-1)^T M_b Ad(C^-1)."""

    def __init__(self, model, torque, applied):
        self.model, self.torque, self.applied = model, torque, applied

    def mass(self, q):
        n = self.model.n
        return np.column_stack([dynamics.idyn(self.model, q, np.zeros(n), e, "body",
                                              gravity=False) for e in np.eye(n)])

    def qdd(self, t, q, qd):
        n = self.model.n
        bias = dynamics.idyn(self.model, q, qd, np.zeros(n), "body", applied=self.applied)
        return np.linalg.solve(self.mass(q), self.torque(t, q, qd) - bias)

    def momenta(self, q, qd):
        cache = kinematics.twists(self.model, q, qd, "spatial")
        return np.array([self._inertia(cache.poses[i], i) @ cache.twists[i]
                         for i in range(self.model.n)])

    def qd(self, q, pis):
        n = self.model.n
        cols = np.stack([kinematics.twists(self.model, q, e, "spatial").twists
                         for e in np.eye(n)], axis=-1)  # cols[i, :, k] = J^s_i e_k
        return np.linalg.solve(self.mass(q), np.einsum("ixk,ix->k", cols, pis))

    def state_rhs(self, t, y):
        n = self.model.n
        return np.concatenate([y[n:], self.qdd(t, y[:n], y[n:])])

    def momentum_rhs(self, t, y):
        n = self.model.n
        q, pis = y[:n], y[n:].reshape(n, 6)
        qd = self.qd(q, pis)
        cache = kinematics.accelerations(
            self.model, kinematics.JointState(q, qd, self.qdd(t, q, qd)), "spatial")
        rates = [dynamics.ne_wrench(cache.twists[i], cache.accels[i],
                                    self._inertia(cache.poses[i], i), "spatial")
                 for i in range(n)]
        return np.concatenate([qd, np.ravel(rates)])

    def _inertia(self, pose, i):
        ad_inv = adjoint(pose.inverse())
        return ad_inv.T @ self.model.inertia_body(i) @ ad_inv


@pytest.mark.parametrize("seed", range(3))
def test_rk4_trajectories_match_recursive_dynamics(seed):
    # 20 steps of both forms against a plain RK4 over the recursive sweeps,
    # on a random tree with all three joint kinds, a torque of t, q and qd
    # and applied wrenches: q, qd and qdd within 1e-10 of their largest entry
    rng = np.random.default_rng(seed)
    model = random_chain(rng, 5, tree=True)
    while len({joint.kind for joint in model.joints}) < 3:
        model = random_chain(rng, 5, tree=True)
    n = model.n
    q0, qd0 = rng.normal(size=n), rng.normal(size=n)
    amp, applied = rng.normal(size=n), 0.5 * rng.normal(size=(n, 6))

    def torque(t, q, qd):
        return amp * np.cos(3.0 * t) - 0.5 * qd + 0.2 * np.sin(q)

    oracle = _RecursiveDynamics(model, torque, applied)
    for form in ("state", "momentum"):
        traj = chain_simulate(model, q0, qd0, torque=torque, T=20 * 2e-3, h=2e-3,
                              form=form, applied=applied)
        assert traj.abort_reason is None and len(traj.times) == 21
        if form == "state":
            ys = _rk4_oracle(oracle.state_rhs, traj.times, np.concatenate([q0, qd0]))
            q, qd = np.array([y[:n] for y in ys]), np.array([y[n:] for y in ys])
        else:
            y0 = np.concatenate([q0, oracle.momenta(q0, qd0).ravel()])
            ys = _rk4_oracle(oracle.momentum_rhs, traj.times, y0)
            q = np.array([y[:n] for y in ys])
            qd = np.array([oracle.qd(y[:n], y[n:].reshape(n, 6)) for y in ys])
        qdd = np.array([oracle.qdd(t, *x) for t, *x in zip(traj.times, q, qd)])
        for got, want in ((traj.q, q), (traj.qd, qd), (traj.qdd, qdd)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_momentum_residual_falls_with_rk4_order():
    # max_i |Pi_i - M^s_i V^s_i(qd)| of the integrated momenta, which
    # RK4's error moves off the momenta of the recovered qd as h^4
    model = load_model(sample_model_path("arm_6r"))
    q0, qd0 = np.linspace(-0.6, 0.6, 6), np.linspace(0.8, -0.4, 6)

    def torque(t, q, qd):
        return np.array([3.0, -2.0, 1.5, 0.5, -0.3, 0.2]) * np.cos(5.0 * t)

    residual = {h: chain_simulate(model, q0, qd0, torque=torque, T=0.1, h=h,
                                  form="momentum").reports[-1].momentum_residual
                for h in (2e-3, 1e-3)}
    assert residual[1e-3] > 0.0
    assert 8.0 <= residual[2e-3] / residual[1e-3] <= 32.0
    state = chain_simulate(model, q0, qd0, torque=torque, T=2e-3, h=1e-3)
    assert all(np.isnan(r.momentum_residual) for r in state.reports)


def _simulate_chain(T, h):
    return chain_simulate(pendulum_model()[0], [0.0], [0.0], T=T, h=h)


def _simulate_free_body(T, h):
    body = BodyModel(1.0, [0, 0, 0], np.eye(3) * 0.1)
    return free_body_simulate(body, RigidBodyState(Pose.identity(), np.ones(6)), T, h)


@pytest.mark.parametrize(
    "simulate, T, h",
    [(sim, T, h) for sim in (_simulate_chain, _simulate_free_body)
     for T, h in ((1e15, 1e-3), (1.0, 1e-300))],
    ids=["1000000000000000.0-0.001", "1.0-1e-300",
         "free_body-1000000000000000.0-0.001", "free_body-1.0-1e-300"])
def test_chain_simulate_names_step_counts_it_cannot_store(simulate, T, h):
    # both simulators fail at once with one message: 1e18 samples cannot
    # be allocated, 1e300 cannot even be sized
    message = f"T={T!r} with h={h!r} takes {round(T / h):.6g} steps"
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate(T, h)


def test_chain_simulate_aborts_on_blow_up(rng):
    model, _ = pendulum_model()

    def exploding_torque(t, q, qd):
        return np.array([1e308])

    traj = chain_simulate(model, [0.1], [0.0], torque=exploding_torque,
                          T=0.5, h=1e-3)
    assert traj.times[-1] < 0.5  # truncated at the last valid step
    assert np.all(np.isfinite(traj.q))
    assert len(traj.reports) == len(traj.times)


@pytest.mark.parametrize("form", ["state", "momentum"])
def test_chain_simulate_records_abort_step_and_reason(form):
    model, _ = pendulum_model()
    done = chain_simulate(model, [0.1], [0.0], T=0.01, h=1e-3, form=form)
    assert done.abort_reason is None and done.abort_step is None

    def exploding_torque(t, q, qd):
        return np.array([1e308 if t > 2.5e-3 else 0.0])

    traj = chain_simulate(model, [0.1], [0.0], torque=exploding_torque,
                          T=0.01, h=1e-3, form=form)
    assert traj.abort_step == len(traj.times) - 1 == len(traj.reports) - 1
    assert 0 < traj.abort_step < 10
    assert "overflow" in traj.abort_reason
    assert np.all(np.isfinite(traj.q)) and np.all(np.isfinite(traj.qd))

    # a failure at step 0 still keeps one report for the one sample
    first = chain_simulate(model, [0.1], [1e200], T=0.01, h=1e-3, form=form)
    assert first.abort_step == 0 and len(first.reports) == len(first.times) == 1
    assert np.isnan(first.reports[0].energy) and np.isnan(first.qdd[0, 0])


def test_chain_simulate_rejects_bad_form():
    model, _ = pendulum_model()
    with pytest.raises(ValueError):
        chain_simulate(model, [0.0], [0.0], form="verlet")


@pytest.mark.parametrize("form", ["state", "momentum"])
@pytest.mark.parametrize("applied", [np.ones(5), np.ones(36), np.full((6, 6), np.nan),
                                     np.where(np.eye(6, dtype=bool), np.inf, 1.0)])
def test_chain_simulate_rejects_bad_applied(form, applied):
    # applied is constant over the run, so a wrong shape or a non-finite
    # entry is an argument error before the first step, not a numerical
    # abort of a one-sample trajectory
    model = load_model(sample_model_path("arm_6r"))
    with pytest.raises(ValueError, match=r"applied must be a finite \(6, 6\) array"):
        chain_simulate(model, np.zeros(6), np.zeros(6), T=0.01, h=1e-3, form=form,
                       applied=applied)


@pytest.mark.parametrize("T, h", [(1.0, 0.0), (1.0, -1e-3), (1.0, np.nan),
                                  (1.0, np.inf), (-0.1, 1e-3), (np.inf, 1e-3),
                                  (np.nan, 1e-3)])
def test_chain_simulate_rejects_bad_step_or_duration(T, h):
    model, _ = pendulum_model()
    with pytest.raises(ValueError):
        chain_simulate(model, [0.0], [0.0], T=T, h=h)
