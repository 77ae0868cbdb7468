"""Newton-Euler dynamics: per-body wrench balances in every representation,
recursive inverse dynamics with operation counting, closed-form equations of
motion (mass matrix, Coriolis matrix, Christoffel symbols), forward dynamics,
and the spatial-momentum phase-space form.

Recursive Newton-Euler is one algorithm in three representations: the
forward sweep of :mod:`screwchain.kinematics` followed by the one backward
wrench sweep here.  ``idyn`` is the two sweeps.  Everything else reads one
configuration pass (:class:`_Configuration`): the poses of
``fk_body_form`` once, and from them, stacked over all bodies, the maps
Ad(C_i) and their inverses, the spatial joint screws, the spatial body
inertias and the composite-rigid-body mass matrix.  ``fdyn`` and
``momentum_rhs`` take their bias forces from the spatial sweeps at zero
joint acceleration, which need no frame transform inside the recursion,
and solve with that mass matrix by a Cholesky factorization.

The last configuration pass is kept, read-only, and reused by the next
call at the same model object and the same bytes of q
(:func:`_configuration`).  A simulation sample needs its configuration
more than once through the public functions (its first RK4 stage, then
the momentum form's qdd and the sample's report), and those functions
keep their signatures, so the pass is shared this way rather than
through a parameter.

The closed-form Coriolis matrix and Christoffel symbols are contractions
of one table: the Lie brackets [J_la, J_lb] of each body's body-fixed
Jacobian columns, built once per configuration.  The Christoffel symbols
are quadratic forms of those brackets against the body inertias, and the
Coriolis matrix uses the Jacobian rate, whose columns are brackets too
(dJ_lj/dq_k = [J_lj, J_lk] for j < k).

Sign conventions: ``idyn`` returns the generalized joint forces required to
realize the given motion, with gravity and user wrenches entering as external
loads (so a static chain under gravity needs positive holding torques equal
to the potential-energy gradient).  ``fdyn`` inverts that relation, so
``idyn(q, qd, fdyn(q, qd, tau)) == tau``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainModel, SpatialInertia, binet_inertia
from .kinematics import (
    JointState,
    Twist,
    _PLAIN,
    _SweepOps,
    _check_rep,
    _fk_stacks,
    _forward_sweep,
    _rep_map,
    _twist_map,
    fk,
    jacobian,
)
from .se3 import (
    Pose,
    ad_matrix,
    adjoint,
    adjoint_rot,
    lie_bracket,
    screw,
)

__all__ = [
    "OpCountReport",
    "IdynResult",
    "ne_wrench",
    "ne_wrench_arbitrary",
    "convert_wrench",
    "gravity_wrenches",
    "spatial_inertia_of",
    "idyn",
    "mass_matrix",
    "coriolis_matrix",
    "christoffel",
    "projection_eom",
    "fdyn",
    "momentum_rhs",
    "predict_op_counts",
    "kinetic_energy",
    "gravity_potential",
    "spatial_momenta",
]


@dataclass
class OpCountReport:
    """Structural operation counts of one inverse-dynamics evaluation."""

    rep: str = ""
    n: int = 0
    frame_transforms_screw: int = 0
    frame_transforms_tensor: int = 0
    lie_brackets: int = 0
    rotations_screw: int = 0
    translations_screw: int = 0


class _Counter(_SweepOps):
    """Per-invocation operation counter of :func:`idyn`.

    A fresh instance lives inside each idyn call (no shared state) and the
    forward and backward sweeps route their algebra through it.  The
    counted quantities are screw frame transformations (with the
    rotation/translation split the hybrid recursion cares about), inertia
    tensor congruences, and Lie brackets including their duals.
    """

    __slots__ = ("report",)

    def __init__(self, rep, n):
        self.report = OpCountReport(rep=rep, n=n)

    def count(self, field):
        setattr(self.report, field, getattr(self.report, field) + 1)


def predict_op_counts(rep: str, n: int) -> OpCountReport:
    """Structural operation counts of the serial-chain inverse dynamics
    sweep: body 3(n-1) screw transforms and 2n-1 brackets; spatial n screw
    plus n tensor transforms and 2n-1 brackets; hybrid 3n-3 translational
    plus n rotational screw transforms, n tensor rotations, 3n-1 brackets.
    """
    _check_rep(rep, ("body", "spatial", "hybrid"))
    r = OpCountReport(rep=rep, n=n)
    if rep == "body":
        r.frame_transforms_screw = 3 * (n - 1)
        r.lie_brackets = 2 * n - 1
    elif rep == "spatial":
        r.frame_transforms_screw = n
        r.frame_transforms_tensor = n
        r.lie_brackets = 2 * n - 1
    else:
        r.translations_screw = 3 * n - 3
        r.rotations_screw = n
        r.frame_transforms_screw = 4 * n - 3
        r.frame_transforms_tensor = n
        r.lie_brackets = 3 * n - 1
    return r


# --------------------------------------------------------------------------
# Per-body Newton-Euler wrench
# --------------------------------------------------------------------------

def _inertia_matrix(inertia, rep):
    if isinstance(inertia, SpatialInertia):
        if inertia.rep != rep:
            raise ValueError(
                f"inertia is tagged {inertia.rep!r} but the call uses {rep!r}")
        return inertia.matrix
    return np.asarray(inertia, dtype=float)


def _twist_vec(v, rep):
    if isinstance(v, Twist):
        if v.rep != rep:
            raise ValueError(f"twist is tagged {v.rep!r} but the call uses {rep!r}")
        return v.s
    return np.asarray(v, dtype=float)


def ne_wrench(v, vdot, inertia, rep: str = "body", com_frame: bool = False) -> np.ndarray:
    """Resultant wrench on one rigid body from its twist and acceleration.

    Body and spatial share the momentum-balance form M Vdot - ad^T_V M V;
    the hybrid form is M Vdot + ad_omega M (omega, 0).  ``com_frame``
    selects the decoupled component equations valid when the frame sits
    at the COM (identical results, fewer operations).
    """
    _check_rep(rep, ("body", "spatial", "hybrid"))
    m = _inertia_matrix(inertia, rep)
    v = _twist_vec(v, rep)
    vdot = np.asarray(vdot, dtype=float)
    if rep in ("body", "spatial"):
        if com_frame and rep == "body":
            theta = m[:3, :3]
            mass = m[5, 5]
            om, vel = v[:3], v[3:]
            return screw(theta @ vdot[:3] + np.cross(om, theta @ om),
                         mass * (vdot[3:] + np.cross(om, vel)))
        return m @ vdot - ad_matrix(v).T @ (m @ v)
    if com_frame:
        theta = m[:3, :3]
        mass = m[5, 5]
        om = v[:3]
        return screw(theta @ vdot[:3] + np.cross(om, theta @ om),
                     mass * vdot[3:])
    om = v[:3]
    p = m @ screw(om, np.zeros(3))
    return m @ vdot + screw(np.cross(om, p[:3]), np.cross(om, p[3:]))


def convert_wrench(w, from_rep: str, to_rep: str, pose: Pose) -> np.ndarray:
    """Exact change of wrench representation B_to^-T B_from^T for a body
    at the given pose, the dual of the twist map (power is preserved)."""
    _check_rep(from_rep)
    _check_rep(to_rep)
    return _twist_map(pose, to_rep, from_rep).T @ np.asarray(w, dtype=float)


def gravity_wrenches(model: ChainModel, poses, rep: str) -> np.ndarray:
    """Per-body gravity wrench in the requested representation.

    Authored in hybrid form (force m g at the COM, moved to the body
    origin) and converted, which keeps the recursions representation-
    agnostic instead of using a fictitious base acceleration.
    """
    _check_rep(rep, ("body", "spatial", "hybrid"))
    g = model.gravity
    out = np.zeros((model.n, 6))
    for i in range(model.n):
        f = model.bodies[i].mass * g
        d_world = poses[i].rot @ model.bodies[i].com_offset
        wh = screw(np.cross(d_world, f), f)
        out[i] = convert_wrench(wh, "hybrid", rep, poses[i])
    return out


def spatial_inertia_of(model: ChainModel, poses, i: int) -> np.ndarray:
    """Inertial-frame 6x6 inertia of body i at the given pose."""
    b_inv = _rep_map(poses[i], "spatial")[1]
    return b_inv.T @ model.inertia_body(i) @ b_inv


def ne_wrench_arbitrary(model: ChainModel, state: JointState, i: int,
                        j: int | None = None, k: int | None = None) -> np.ndarray:
    """NE wrench of body i measured at the origin of frame j and resolved
    in frame k (``None`` selects the inertial frame).

    ``i == j == k`` reproduces the body-fixed wrench, ``j == i`` with
    ``k = None`` the hybrid one, ``j = k = None`` the spatial one.
    """
    from .kinematics import accelerations

    cache = accelerations(model, state, "spatial")
    poses = cache.poses
    vs, vsd = cache.twists, cache.accels

    def pose_of(m):
        return Pose.identity() if m is None else poses[m]

    def spatial_twist_of(m):
        return np.zeros(6) if m is None else vs[m]

    cj = pose_of(j)
    adj_inv = adjoint(cj.inverse())
    vj_i = adj_inv @ vs[i]
    vjd_i = adj_inv @ (vsd[i] - lie_bracket(spatial_twist_of(j), vs[i]))
    vj_j = adj_inv @ spatial_twist_of(j)
    vj_k = adj_inv @ spatial_twist_of(k)
    mj_i = adjoint(cj).T @ spatial_inertia_of(model, poses, i) @ adjoint(cj)

    r_kj = pose_of(k).rot.T @ cj.rot
    ad_r = adjoint_rot(r_kj)
    vk_i = ad_r @ vj_i
    vk_j = ad_r @ vj_j
    vkd_i = ad_r @ (vjd_i - lie_bracket(screw(vj_k[:3], np.zeros(3)), vj_i))
    omega_k = ad_r @ screw(vj_k[:3], np.zeros(3))
    mk_i = ad_r @ mj_i @ ad_r.T  # congruence with the inverse coordinate map

    w = mk_i @ (vkd_i + (ad_matrix(vk_j) + ad_matrix(omega_k)) @ vk_i)
    return w - ad_matrix(vk_i).T @ (mk_i @ vk_i)


def wrench_to_spatial(w, j: int | None, k: int | None, poses) -> np.ndarray:
    """Map a wrench measured at frame j, resolved in frame k, back to the
    spatial representation (inverse transport of ne_wrench_arbitrary)."""
    cj = Pose.identity() if j is None else poses[j]
    ck = Pose.identity() if k is None else poses[k]
    r_kj = ck.rot.T @ cj.rot
    wj = adjoint_rot(r_kj).T @ np.asarray(w, dtype=float)
    return np.linalg.solve(adjoint(cj).T, wj)


# --------------------------------------------------------------------------
# Recursive inverse dynamics in three representations
# --------------------------------------------------------------------------

@dataclass
class IdynResult:
    Q: np.ndarray
    wrenches: np.ndarray
    report: OpCountReport
    rep: str


def idyn(model: ChainModel, q, qd, qdd, rep: str = "body", applied=None,
         gravity: bool = True, full: bool = False):
    """Inverse dynamics: generalized forces realizing the given motion.

    ``applied`` is an optional (n, 6) array of external wrenches per body
    in the same representation as ``rep``; gravity enters as a per-body
    wrench unless disabled.  ``rep == "mixed"`` routes the evaluation
    through the hybrid recursion (a mixed wrench pairs a body-fixed
    torque with an inertial force, which has no native recursion) and
    converts ``applied`` from mixed to hybrid.

    With ``full=True`` an :class:`IdynResult` carrying the transmitted
    joint wrenches and the operation-count report is returned instead.
    """
    _check_rep(rep)
    work_rep = "hybrid" if rep == "mixed" else rep
    n = model.n
    cnt = _Counter(work_rep, n)
    cache = _forward_sweep(model, JointState(q, qd, qdd), work_rep, 1, cnt)
    poses = cache.poses
    ext = _loads(model, poses, work_rep, applied, gravity, rep)
    Q, W = _backward_sweep(model, cache, _inertias(model, poses, work_rep, cnt), ext, cnt)
    if full:
        return IdynResult(Q, W, cnt.report, work_rep)
    return Q


def _loads(model: ChainModel, poses, rep: str, applied, gravity: bool,
           applied_rep: str) -> np.ndarray:
    """Per-body external wrenches in ``rep``: gravity (unless disabled)
    plus ``applied``, which is given in ``applied_rep``."""
    n = model.n
    ext = gravity_wrenches(model, poses, rep) if gravity else np.zeros((n, 6))
    if applied is not None:
        applied = np.asarray(applied, dtype=float).reshape(n, 6)
        for i in range(n):
            ext[i] += convert_wrench(applied[i], applied_rep, rep, poses[i])
    return ext


def _inertias(model: ChainModel, poses, rep: str, ops: _SweepOps = _PLAIN) -> list:
    """Per-body 6x6 inertias B^-T M B^-1 in the representation of a
    sweep; the body inertias M are not transformed."""
    n = model.n
    if rep == "body":
        return [model.inertia_body(i) for i in range(n)]
    return [ops.tensor(_rep_map(poses[i], rep)[1], model.inertia_body(i))
            for i in range(n)]


def _backward_sweep(model: ChainModel, cache, inertias, ext,
                    ops: _SweepOps = _PLAIN) -> tuple[np.ndarray, np.ndarray]:
    """The one Newton-Euler wrench recursion, from the leaves to the roots,
    in the representation of ``cache`` (a forward sweep's result).

    Each body's balance (body and spatial: M Vdot - ad^T_V M V; hybrid:
    M Vdot + [omega, M omega]) less its load ``ext`` joins the wrenches
    its children transmit; the sum is projected on the joint screw and
    carried to the parent.  Returns (joint forces, joint wrenches).
    """
    n = model.n
    rep = cache.rep
    V, Vd, x = cache.twists, cache.accels, cache.joint_screws
    kind = "translations_screw" if rep == "hybrid" else None
    W = np.zeros((n, 6))
    Q = np.zeros(n)
    for i in range(n - 1, -1, -1):
        m = inertias[i]
        if rep == "hybrid":
            omega = screw(V[i][:3], np.zeros(3))
            W[i] += m @ Vd[i] + ops.bracket(omega, m @ omega) - ext[i]
        else:
            W[i] += m @ Vd[i] - ops.cobracket(V[i], m @ V[i]) - ext[i]
        Q[i] = x[i] @ W[i]
        p = model.parent[i]
        if p >= 0:
            xf = cache.parent_transforms[i]
            W[p] += W[i] if xf is None else ops.xform(xf.T, W[i], kind=kind)
    return Q, W


# --------------------------------------------------------------------------
# Closed-form equations of motion
# --------------------------------------------------------------------------

def _subtree_sums(model: ChainModel, a) -> np.ndarray:
    """a[i] summed over the subtree rooted at body i (leaves to roots)."""
    out = np.array(a, dtype=float)
    for i in range(model.n - 1, -1, -1):
        if model.parent[i] >= 0:
            out[model.parent[i]] += out[i]
    return out


def _path_sums(model: ChainModel, a) -> np.ndarray:
    """a[i] summed over the path from the root down to body i."""
    out = np.array(a, dtype=float)
    for i in range(model.n):
        if model.parent[i] >= 0:
            out[i] += out[model.parent[i]]
    return out


class _Configuration:
    """One configuration pass at q: the body poses of :func:`fk_body_form`
    once, and from them the spatial joint screws js, the spatial body
    inertias and the composite-rigid-body mass matrix.  All arrays are
    read-only.

    The maps Ad(C_i) and their inverses come as one (n, 6, 6) stack from
    :func:`_rep_map`, so the screws Ad(C_i) X_i and the inertias
    Ad(C_i)^-T M_i Ad(C_i)^-1 are one contraction each over all bodies.
    Spatial inertias add without transformation, so with Ic_k the inertia
    of the subtree rooted at body k, M_jk = js_j . Ic_k js_k for every j
    on the path to k, and zero off the paths.
    """

    def __init__(self, model: ChainModel, q):
        n = model.n
        self.model = model
        self.q = np.array(q, dtype=float).reshape(n)
        self.q.setflags(write=False)
        absolute, relative = _fk_stacks(model, self.q)
        self.frames = absolute.poses(), relative.poses()
        self.poses = self.frames[0]
        b, b_inv = _rep_map(absolute, "spatial")
        tab = model.tables
        self.screws = js = np.einsum("nij,nj->ni", b, tab.screw)
        self.inertias = np.swapaxes(b_inv, 1, 2) @ tab.inertia @ b_inv
        ic = _subtree_sums(model, self.inertias)
        g = js @ np.einsum("kij,kj->ik", ic, js)  # g[j, k] = js_j . Ic_k js_k
        self.mass = np.where(tab.on_path, g, np.where(tab.on_path.T, g.T, 0.0))
        for arr in (self.screws, self.inertias, self.mass):
            arr.setflags(write=False)

    def momenta(self, qd) -> np.ndarray:
        """Per-body spatial momenta M^s_i V^s_i; V^s_i sums js_j qd_j
        over the path to body i."""
        qd = np.asarray(qd, dtype=float).reshape(self.model.n)
        return np.einsum("ijk,ik->ij", self.inertias,
                         _path_sums(self.model, self.screws * qd[:, None]))

    def accel(self, qd, tau, applied, gravity: bool):
        """qdd = M^-1 (tau - bias), the bias being :func:`idyn`'s spatial
        forward and backward sweeps at qdd = 0, and that forward sweep
        (twists, velocity part of the accelerations).  ``tau`` may be
        None; ``applied`` is in body representation."""
        n = self.model.n
        tau = np.zeros(n) if tau is None else np.asarray(tau, dtype=float).reshape(n)
        cache = _forward_sweep(self.model, JointState(self.q, qd), "spatial", 1,
                               frames=self.frames, screws=self.screws)
        loads = _loads(self.model, self.poses, "spatial", applied, gravity, "body")
        bias, _ = _backward_sweep(self.model, cache, self.inertias, loads)
        return _spd_solve(self.mass, tau - bias), cache


# The last configuration pass, reused as the module docstring explains.
_last_configuration: _Configuration | None = None


def _configuration(model: ChainModel, q) -> _Configuration:
    """The :class:`_Configuration` at (model, q): the last one built when
    it was built for this model object at a q with the same bytes,
    otherwise a new one, which replaces it."""
    global _last_configuration
    q = np.asarray(q, dtype=float).reshape(model.n)
    last = _last_configuration
    if last is not None and last.model is model and last.q.tobytes() == q.tobytes():
        return last
    _last_configuration = cfg = _Configuration(model, q)
    return cfg


def mass_matrix(model: ChainModel, q) -> np.ndarray:
    """Generalized mass matrix by the composite-rigid-body algorithm."""
    return _configuration(model, q).mass.copy()


def _spd_solve(m, b) -> np.ndarray:
    """Solve m x = b for a symmetric positive-definite m by Cholesky.

    Raises ValueError when m or b holds a NaN or an infinity (which numpy
    would carry through silently) or when m is not positive definite.
    """
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(b))):
        raise ValueError("array must not contain infs or NaNs")
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"matrix is not positive definite: {err}") from None
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


# Structure constants: (u x v)_x = _CROSS[x, y, z] u_y v_z, and for screws
# ordered (angular, linear) [X, Y]_x = _SE3_BRACKET[x, y, z] X_y Y_z.
_CROSS = np.zeros((3, 3, 3))
_CROSS[0, 1, 2] = _CROSS[1, 2, 0] = _CROSS[2, 0, 1] = 1.0
_CROSS[0, 2, 1] = _CROSS[2, 1, 0] = _CROSS[1, 0, 2] = -1.0
_SE3_BRACKET = np.zeros((6, 6, 6))
_SE3_BRACKET[:3, :3, :3] = _SE3_BRACKET[3:, 3:, :3] = _SE3_BRACKET[3:, :3, 3:] = _CROSS
_CROSS.setflags(write=False)
_SE3_BRACKET.setflags(write=False)


def _pair_table(consts, u, v) -> np.ndarray:
    """out[l, :, a, b] = the bilinear product with structure constants
    ``consts`` of u[l, :, a] and v[l, :, b], for every body l."""
    return np.einsum("xyz,lya,lzb->lxab", consts, u, v, optimize=True)


def _bracket_table(model: ChainModel, q) -> tuple[np.ndarray, np.ndarray]:
    """The body Jacobian as jb[l, :, j] = J_lj (zero off body l's path)
    and the table br[l, :, a, b] = [J_la, J_lb] of the brackets of each
    body's columns."""
    n = model.n
    jb = jacobian(model, q, "body").J.reshape(n, 6, n)
    return jb, _pair_table(_SE3_BRACKET, jb, jb)


def _mirror_upper(g) -> np.ndarray:
    """g[i, a, b] for a <= b, mirrored into a > b."""
    n = g.shape[-1]
    return np.where(np.triu(np.ones((n, n), dtype=bool)), g, g.swapaxes(1, 2))


def coriolis_matrix(model: ChainModel, q, qd) -> np.ndarray:
    """Coriolis/centrifugal matrix sum_l J_l^T (M_l Jdot_l - ad_{V_l}^T M_l J_l)
    over the body-fixed Jacobian block rows J_l, body inertias M_l and
    body twists V_l = J_l qd.

    The column rates are brackets of the columns, dJ_lj/dq_k = [J_lj, J_lk]
    for j < k on the path of l (zero for j >= k), so Jdot_l is the strict
    upper triangle of the bracket table contracted with qd.
    """
    n = model.n
    qd = np.asarray(qd, dtype=float).reshape(n)
    jb, br = _bracket_table(model, q)
    mj = np.array([model.inertia_body(l) @ jb[l] for l in range(n)])
    jdot = np.einsum("lxjk,k->lxj", np.triu(br, 1), qd)
    ad_vj = np.einsum("xyz,ly,lzj->lxj", _SE3_BRACKET, jb @ qd, jb)  # [V_l, J_lj]
    return np.einsum("lxi,lxj->ij", mj, jdot) - np.einsum("lxi,lxj->ij", ad_vj, mj)


def christoffel(model: ChainModel, q, variant: str = "standard") -> np.ndarray:
    """Christoffel symbols of the first kind, Gamma[i, j, k], symmetric in
    the last two indices.

    Both variants contract the table of brackets [J_la, J_lb] of each
    body's body-fixed Jacobian columns (or the cross products of their
    parts), compute the ordered half a <= b of Gamma[i, a, b] and mirror
    it.  ``standard`` sums the three bracket quadratic forms against the
    body inertia matrices M_l,
    1/2 (J_lb M_l [J_li, J_la] + J_la M_l [J_li, J_lb] + J_li M_l [J_la, J_lb]).
    ``binet`` is an independent route: pulling the columns back to the
    COM (angular part w, COM velocity c) collapses the rotational part to
    a single cross-product form against Binet's tensor (half trace minus
    the COM inertia tensor), w_la . Binet_l (w_lb x w_li), leaving one
    pure-mass term m_l c_li . (w_la x c_lb).  Both agree with the half-sum
    of mass-matrix partials.
    """
    if variant not in ("standard", "binet"):
        raise ValueError("variant must be 'standard' or 'binet'")
    jb, br = _bracket_table(model, q)
    if variant == "standard":
        mj = np.array([model.inertia_body(l) @ jb[l] for l in range(model.n)])
        t1 = np.einsum("lxb,lxia->iab", mj, br)
        t3 = np.einsum("lxi,lxab->iab", mj, br)
        return _mirror_upper(0.5 * (t1 + t1.swapaxes(1, 2) + t3))
    bodies = model.bodies
    w = jb[:, :3]
    d = np.array([b.com_offset for b in bodies])
    c = jb[:, 3:] - np.cross(d[:, :, None], w, axis=1)
    bw = np.array([binet_inertia(b.inertia_com) @ w[l] for l, b in enumerate(bodies)])
    mass = np.array([b.mass for b in bodies])
    return _mirror_upper(np.einsum("lxa,lxbi->iab", bw, br[:, :3])
                         + np.einsum("l,lxi,lxab->iab", mass, c, _pair_table(_CROSS, w, c)))


def projection_eom(model: ChainModel, q, qd, qdd, applied=None,
                   gravity: bool = True) -> np.ndarray:
    """Virtual-power projection residual (J^b)^T of the stacked per-body
    NE balances; zero at states consistent with the applied loads."""
    from .kinematics import accelerations

    n = model.n
    cache = accelerations(model, JointState(q, qd, qdd), "body")
    sj = jacobian(model, q, "body")
    ext = _loads(model, cache.poses, "body", applied, gravity, "body")
    stacked = [ne_wrench(cache.twists[i], cache.accels[i], model.inertia_body(i))
               - ext[i] for i in range(n)]
    return sj.J.T @ np.concatenate(stacked)


def fdyn(model: ChainModel, q, qd, tau=None, applied=None,
         gravity: bool = True) -> np.ndarray:
    """Forward dynamics qdd = M^-1 (tau - bias).

    One configuration pass gives the composite-rigid-body mass matrix M;
    the bias is :func:`idyn`'s spatial forward and backward sweep at
    qdd = 0 on its poses and joint screws, and the solve a Cholesky
    factorization; raises ValueError when M is not positive definite or
    tau - bias is not finite.  ``applied`` takes per-body external
    wrenches in body representation.
    """
    return _configuration(model, q).accel(qd, tau, applied, gravity)[0]


def spatial_momenta(model: ChainModel, q, qd) -> np.ndarray:
    """Stacked per-body spatial momentum co-screws Pi_i = M^s_i V^s_i."""
    return _configuration(model, q).momenta(qd)


def momentum_rhs(model: ChainModel, q, pi_stack, tau=None, applied=None,
                 gravity: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Phase-space right-hand side: rates of the spatial momenta and the
    joint velocities recovered from them.

    The stacked relation M^s_i J^s_i qd = Pi_i contracted with the spatial
    Jacobian is the SPD system M(q) qd = (J^s)^T Pi, with M the
    composite-rigid-body mass matrix of one configuration pass, as in
    :func:`fdyn`; so are the bias (the spatial sweeps at qdd = 0) and
    qdd = M^-1 (tau - bias).  Each momentum rate is its body's spatial
    Newton-Euler balance :func:`ne_wrench`.  ``tau`` may be a callable of
    the recovered qd; applied wrenches are taken in body representation,
    as in :func:`fdyn`.
    """
    n = model.n
    pi_stack = np.asarray(pi_stack, dtype=float).reshape(n, 6)
    cfg = _configuration(model, q)
    js = cfg.screws
    # (J^s)^T Pi: each joint screw pairs with the momentum of its subtree
    qd = _spd_solve(cfg.mass, np.einsum("ij,ij->i", js, _subtree_sums(model, pi_stack)))
    qdd, cache = cfg.accel(qd, tau(qd) if callable(tau) else tau, applied, gravity)
    # accelerations are affine in qdd: add the joint terms to the bias sweep's
    vd = _path_sums(model, js * qdd[:, None]) + cache.accels
    pidot = np.array([ne_wrench(cache.twists[i], vd[i], cfg.inertias[i], "spatial")
                      for i in range(n)])
    return pidot, qd


def kinetic_energy(model: ChainModel, q, qd) -> float:
    m = mass_matrix(model, q)
    qd = np.asarray(qd, dtype=float)
    return 0.5 * float(qd @ m @ qd)


def gravity_potential(model: ChainModel, q) -> float:
    """Potential energy -sum m_i g . r_com_i of the configuration."""
    return _potential(model, fk(model, q))


def _potential(model: ChainModel, poses) -> float:
    """:func:`gravity_potential` of the bodies at the given poses."""
    return -sum(b.mass * float(model.gravity @ pose.apply(b.com_offset))
                for b, pose in zip(model.bodies, poses))
