"""Newton-Euler dynamics: per-body wrench balances in every representation,
recursive inverse dynamics with operation counting, closed-form equations of
motion (mass matrix, Coriolis matrix, Christoffel symbols), forward dynamics,
and the spatial-momentum phase-space form.

Recursive Newton-Euler is one algorithm in three representations: the
twists and accelerations of :func:`screwchain.kinematics._kinematics`
followed by the one backward wrench sweep here, both over the frame
table of their representation (:func:`screwchain.kinematics._frame_table`).
The motion is the counted forward recursion
(:func:`screwchain.kinematics._forward_sweep`) in body and hybrid form,
and in spatial form the one path-sum kernel
(:func:`screwchain.kinematics._spatial_motion`) with the table's
inertias.  The balances of all bodies are one stacked product in every
form (the kernel forms the spatial ones with the motion); the sweep then
only carries wrenches to the parents, unchanged in spatial form (subtree
sums) and by the transposed parent transforms in body and hybrid form.
Each step adds its operation counts to the one report of :func:`idyn`.
Everything else reads one configuration pass (:class:`_Configuration`):
the pose stack once, the spatial frame table at it and the
composite-rigid-body mass matrix, whose inverse Cholesky factor, made
once per pass, solves.  The bias J^T (M Jdot qd - ad^T_V M V - loads) of
``fdyn`` and ``momentum_rhs`` is the kernel at qdd = 0 and one backward
sweep; the momentum form's rates are those balances plus M_i times the
path sums of js_j qdd_j.

Every call builds its own pass and keeps none.  A pass over an (m, n)
stack of configurations is m passes in one set of stacked products,
each sample's arrays bit for bit those of its own pass; the chunked
reports of :func:`screwchain.integrators.chain_simulate` read such a
pass.  Its products follow the rule of ``screwchain.se3._dot``, and a
one-sample call coerces each joint vector once on its way to the pass.

The closed-form Coriolis matrix and Christoffel symbols contract the one
bracket table of :mod:`screwchain.kinematics` (``_bracket_table``): the
Lie brackets [J_la, J_lb] of each body's body-fixed Jacobian columns,
against the body inertias; the Coriolis matrix's Jacobian rate has
bracket columns too (dJ_lj/dq_k = [J_lj, J_lk] for j < k).  Brackets,
cross products and adjoints, one-screw and stacked, are the kernels of
:mod:`screwchain.se3`.

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
from .kinematics import (JointState, Twist, _Frames, _PoseStack, _bracket_table, _check_indices,
                         _check_rep, _fk_stacks, _frame_table, _jacobian, _kinematics,
                         _one_sample, _rate, _read_inertias, _spatial_motion, _twist_map,
                         accelerations)
from .se3 import (Pose, _CROSS, _SE3_BRACKET, _brackets, _dot, _pair_table, ad_matrix,
                  adjoint, adjoint_rot, lie_bracket, screw)

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
    """Structural operation counts of one inverse-dynamics evaluation, each
    added once per loop or stacked call, from its extent, by the step doing
    the work: the frame table, forward sweep and path sums of
    :mod:`screwchain.kinematics`, :func:`_balances` and :func:`_backward_sweep`."""

    rep: str = ""
    n: int = 0
    frame_transforms_screw: int = 0
    frame_transforms_tensor: int = 0
    lie_brackets: int = 0
    rotations_screw: int = 0
    translations_screw: int = 0


def predict_op_counts(rep: str, n: int) -> OpCountReport:
    """Structural operation counts of inverse dynamics, exact on any tree
    of n bodies with one root: body 3(n-1) screw transforms and 2n-1
    brackets; spatial n screw plus n tensor transforms and 2n-1 brackets;
    hybrid 3n-3 translational plus n rotational screw transforms, n tensor
    rotations, 3n-1 brackets.  On a forest of r roots, r replaces each 1
    (body: 3(n-r) transforms and 2n-r brackets).  n must be an integer >= 1.
    """
    _check_rep(rep, ("body", "spatial", "hybrid"))
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"predict_op_counts: n must be an integer >= 1, got {n!r}")
    if rep == "body":
        return OpCountReport(rep, n, frame_transforms_screw=3 * (n - 1),
                             lie_brackets=2 * n - 1)
    if rep == "spatial":
        return OpCountReport(rep, n, frame_transforms_screw=n, frame_transforms_tensor=n,
                             lie_brackets=2 * n - 1)
    return OpCountReport(rep, n, frame_transforms_screw=4 * n - 3, frame_transforms_tensor=n,
                         lie_brackets=3 * n - 1, rotations_screw=n,
                         translations_screw=3 * n - 3)


# --------------------------------------------------------------------------
# Per-body Newton-Euler wrench
# --------------------------------------------------------------------------

def _untagged(value, rep, what):
    """The array of a plain array, :class:`Twist` or :class:`SpatialInertia`;
    a tagged one must be tagged ``rep``."""
    if isinstance(value, (Twist, SpatialInertia)):
        if value.rep != rep:
            raise ValueError(f"{what} is tagged {value.rep!r} but the call uses {rep!r}")
        return value.s if isinstance(value, Twist) else value.matrix
    return np.asarray(value, dtype=float)


def ne_wrench(v, vdot, inertia, rep: str = "body", com_frame: bool = False) -> np.ndarray:
    """Resultant wrench on one rigid body from its twist and acceleration.

    Body and spatial share the momentum-balance form M Vdot - ad^T_V M V;
    the hybrid form is M Vdot + ad_omega M (omega, 0).  ``com_frame``
    selects the decoupled component equations valid when the frame sits
    at the COM (identical results, fewer operations).
    """
    _check_rep(rep, ("body", "spatial", "hybrid"))
    m = _untagged(inertia, rep, "inertia")
    v = _untagged(v, rep, "twist")
    vdot = np.asarray(vdot, dtype=float)
    om = v[:3]
    if com_frame and rep != "spatial":
        theta = m[:3, :3]
        lin = vdot[3:] + np.cross(om, v[3:]) if rep == "body" else vdot[3:]
        return screw(theta @ vdot[:3] + np.cross(om, theta @ om), m[5, 5] * lin)
    if rep != "hybrid":
        return m @ vdot - ad_matrix(v).T @ (m @ v)
    p = m @ screw(om, np.zeros(3))
    return m @ vdot + screw(np.cross(om, p[:3]), np.cross(om, p[3:]))


def convert_wrench(w, from_rep: str, to_rep: str, pose: Pose) -> np.ndarray:
    """Exact change of wrench representation B_to^-T B_from^T for a body
    at the given pose, the dual of the twist map (power is preserved)."""
    _check_rep(from_rep)
    _check_rep(to_rep)
    return _twist_map(pose, to_rep, from_rep).T @ np.asarray(w, dtype=float)


def gravity_wrenches(model: ChainModel, poses, rep: str) -> np.ndarray:
    """Per-body gravity wrench in the requested representation at one
    pose per body (else ValueError): the gravity loads of the frame table
    at the poses (:func:`screwchain.kinematics._frame_table`), each body's
    inertia times the acceleration of the gravity field.  The weight
    enters the recursions as a load in every representation rather than
    as a fictitious base acceleration.
    """
    _check_rep(rep, ("body", "spatial", "hybrid"))
    if len(poses) != model.n:
        raise ValueError(f"gravity_wrenches: expected {model.n} poses, got {len(poses)}")
    stack = _PoseStack(np.array([p.matrix() for p in poses]))
    return _frame_table(model, stack, None, rep).gravity.copy()


def spatial_inertia_of(model: ChainModel, poses, i: int) -> np.ndarray:
    """Inertial-frame 6x6 inertia of body i at the given pose, read out of
    its pseudo-inertia J carried by the pose W as W J W^T (IndexError
    unless i names a body)."""
    _check_indices("spatial_inertia_of", model.n, i)
    tab = model.tables
    return _read_inertias(poses[i].matrix(), tab.pseudo[i], tab.readout)[1]


def ne_wrench_arbitrary(model: ChainModel, state: JointState, i: int,
                        j: int | None = None, k: int | None = None) -> np.ndarray:
    """NE wrench of body i measured at the origin of frame j and resolved
    in frame k (``None`` selects the inertial frame).

    ``i == j == k`` reproduces the body-fixed wrench, ``j == i`` with
    ``k = None`` the hybrid one, ``j = k = None`` the spatial one.
    Raises IndexError unless i, j and k (when given) name bodies.
    """
    _check_indices("ne_wrench_arbitrary", model.n, *(m for m in (i, j, k) if m is not None))
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

    The frame table, the motion and, in spatial form, the balances come
    from one :func:`screwchain.kinematics._kinematics` call.  With
    ``full=True`` an :class:`IdynResult` carrying the transmitted joint
    wrenches and the operation-count report is returned instead.
    """
    _check_rep(rep)
    work_rep = "hybrid" if rep == "mixed" else rep
    report = OpCountReport(work_rep, model.n)
    frames, V, Vd, balances = _kinematics(model, JointState(q, qd, qdd), work_rep, report)
    ext = _loads(model, frames, applied, gravity, rep)
    Q, W = _backward_sweep(model, frames, V, Vd, ext, report, balances)
    if full:
        return IdynResult(Q, W, report, work_rep)
    return Q


def _loads(model: ChainModel, frames: _Frames, applied, gravity: bool,
           applied_rep: str) -> np.ndarray:
    """Per-body external wrenches in the representation of ``frames``:
    its gravity loads (unless disabled) plus ``applied``, which is given
    in ``applied_rep`` and converted by one stacked product."""
    n = model.n
    ext = frames.gravity if gravity else np.zeros((n, 6))
    if applied is not None:
        m = _twist_map(frames.poses, frames.rep, applied_rep)
        ext = ext + np.einsum("...ji,...j->...i", m, _applied_wrenches(n, applied))
    return ext


def _applied_wrenches(n: int, applied) -> np.ndarray | None:
    """``applied`` as a finite (n, 6) float array; None stays None."""
    if applied is None:
        return None
    applied = np.asarray(applied, dtype=float)
    if applied.shape != (n, 6) or not np.isfinite(applied).all():
        raise ValueError(f"applied must be a finite ({n}, 6) array of body wrenches")
    return applied


def _backward_sweep(model: ChainModel, frames: _Frames, V, Vd, ext,
                    ops=None, balances=None) -> tuple[np.ndarray, np.ndarray]:
    """The one Newton-Euler wrench recursion, from the leaves to the roots,
    over the frame table ``frames`` and the twists V and accelerations Vd
    of all bodies in its representation.

    Each body's joint wrench is its balance (``balances``, else
    :func:`_balances`) less its load ``ext``, plus the joint wrenches of
    its children.  A wrench passes to the parent unchanged in spatial
    form, so there the joint wrenches are subtree sums; in body and
    hybrid form the loop carries each by the transpose of its parent
    transform.  Returns (joint forces, joint wrenches), each force the
    projection of its joint wrench on the joint screw.  ``ops`` counts
    the loop's transforms, one per link (translations in hybrid form)."""
    W = (_balances(frames, V, Vd, ops) if balances is None else balances) - ext
    if frames.rep == "spatial":
        W = _dot(model.tables.path, W)
    else:
        for i, p in reversed(model.links):
            W[p] += frames.parent[i].T @ W[i]
        if ops is not None:
            ops.frame_transforms_screw += len(model.links)
            ops.translations_screw += len(model.links) * (frames.rep == "hybrid")
    return (frames.screws * W).sum(axis=1), W


def _balances(frames: _Frames, V, Vd, ops=None) -> np.ndarray:
    """The Newton-Euler balances of all bodies in the representation of
    the frame table ``frames`` from their twists V and accelerations Vd,
    one stacked product: M Vdot - ad^T_U M U with U = V in body and
    spatial form and U = (omega, 0) in hybrid form, where -ad^T_U M U is
    [omega, M omega]; ``ops`` counts the n co-brackets ([U_i, U_i] = 0)."""
    if frames.rep == "hybrid":
        V = np.concatenate((V[:, :3], np.zeros_like(V[:, 3:])), axis=1)
    mv = (frames.inertias @ np.array([V, Vd])[..., None])[..., 0]  # M_i U_i and M_i Vdot_i
    if ops is not None:
        ops.lie_brackets += len(V)
    return mv[1] - _brackets(V, np.concatenate((V, mv[0]), axis=1))[1]


# --------------------------------------------------------------------------
# Closed-form equations of motion
# --------------------------------------------------------------------------

class _Configuration:
    """One configuration pass at q: the absolute pose stack of
    :func:`_fk_stacks` once, and from it the spatial frame table
    ``frames`` (the spatial joint screws js, body inertias and pose stack
    among it) and the composite-rigid-body mass matrix.  A q with leading
    sample axes, (..., n), gives every array of the pass those axes, each
    sample's entries bit for bit those of its own pass; :meth:`momenta`,
    :meth:`solve`, :meth:`accel` and :meth:`momentum_rates` read a
    one-sample pass.  Nothing writes a pass's arrays.

    Spatial inertias add without transformation, so with Ic_k the inertia
    of the subtree rooted at body k, M_jk = js_j . Ic_k js_k for every j
    on the path to k, and zero off the paths; ``icjs`` keeps Ic_k js_k,
    which also gives the total momentum sum_i M^s_i V^s_i = qd . icjs.  The
    twists, the accelerations at qdd = 0 and the balances of :meth:`accel`
    are the path sums of :func:`screwchain.kinematics._spatial_motion`.
    The first :meth:`solve` keeps L^-1 of M = L L^T (``_low``).
    """

    def __init__(self, model: ChainModel, q):
        self.model = model
        self.frames = frames = _frame_table(model, _fk_stacks(model, q, relative=False)[0],
                                            None, "spatial")
        tab, js, inertias = model.tables, frames.screws, frames.inertias
        ic = _dot(tab.path, inertias.reshape(js.shape[:-1] + (36,))).reshape(inertias.shape)
        self.icjs = (ic @ js[..., None])[..., 0]  # Ic_k js_k
        g = _dot(js, self.icjs.swapaxes(-1, -2))  # g[..., j, k] = js_j . Ic_k js_k
        self.mass = np.where(tab.on_path, g, np.where(model._on_path_t, g.swapaxes(-1, -2), 0.0))
        self._low = None

    def momenta(self, qd) -> np.ndarray:
        """Per-body spatial momenta M^s_i V^s_i (:func:`_momenta`)."""
        return _momenta(self.model, self.frames.screws, self.frames.inertias,
                        _one_sample(self.model, qd))

    def solve(self, b) -> np.ndarray:
        """M^-1 b = L^-T (L^-1 b), two products.  ValueError when M or b
        holds a NaN or an infinity (which numpy would carry through
        silently) or when M is not positive definite."""
        if self._low is None:
            if not np.isfinite(self.mass).all():
                raise ValueError("array must not contain infs or NaNs")
            try:
                self._low = np.linalg.inv(np.linalg.cholesky(self.mass))
            except np.linalg.LinAlgError as err:
                raise ValueError(f"matrix is not positive definite: {err}") from None
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        return _dot(self._low.T, _dot(self._low, b))

    def accel(self, qd, tau, applied, gravity: bool):
        """(qdd, twists, accelerations and balances at qdd = 0),
        qdd = M^-1 (tau - bias) with the bias J^T (M Jdot qd - ad^T_V M V - loads)
        from the path sums of ``_spatial_motion`` and one :func:`_backward_sweep`.
        qd is a float vector, ``tau`` may be None; ``applied`` is in body
        representation."""
        model, frames = self.model, self.frames
        tau = np.zeros(model.n) if tau is None else _one_sample(model, tau)
        (V, vd), rates = _spatial_motion(model, frames.screws, qd, inertias=frames.inertias)
        loads = _loads(model, frames, applied, gravity, "body")
        bias = _backward_sweep(model, frames, V, vd, loads, balances=rates)[0]
        return self.solve(tau - bias), V, vd, rates

    def momentum_rates(self, pi_stack, tau, applied, gravity: bool):
        """(rates of the spatial momenta, qd, qdd) at the stacked momenta
        ``pi_stack``, as :func:`momentum_rhs` describes; ``tau`` may be a
        callable of the recovered qd."""
        model, js = self.model, self.frames.screws
        # (J^s)^T Pi: each joint screw pairs with the momentum of its subtree
        subtree = _dot(model.tables.path, np.asarray(pi_stack, dtype=float).reshape(model.n, 6))
        qd = self.solve((js * subtree).sum(axis=1))
        qdd, _, _, rates = self.accel(qd, tau(qd) if callable(tau) else tau, applied, gravity)
        return rates + _momenta(model, js, self.frames.inertias, qdd), qd, qdd


def _momenta(model: ChainModel, screws, inertias, rates) -> np.ndarray:
    """Spatial momenta M^s_i V^s_i (M^s (..., n, 6, 6)) of the spatial
    twists V^s_i, the sums of js_j rates_j over the path to body i, of
    screws js (..., n, 6) and rates (..., n); leading axes are samples."""
    twists = _dot(model._path_t, screws * rates[..., None])
    return (inertias @ twists[..., None])[..., 0]


def mass_matrix(model: ChainModel, q) -> np.ndarray:
    """Generalized mass matrix by the composite-rigid-body algorithm."""
    return _Configuration(model, _one_sample(model, q)).mass


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
    qd = _rate("coriolis_matrix", "qd", qd, model.n)
    jb, br = _bracket_table(model, q)
    mj = model.tables.inertia @ jb
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
        mj = model.tables.inertia @ jb
        t1 = np.einsum("lxb,lxia->iab", mj, br)
        t3 = np.einsum("lxi,lxab->iab", mj, br)
        return _mirror_upper(0.5 * (t1 + t1.swapaxes(1, 2) + t3))
    tab = model.tables
    w = jb[:, :3]
    c = jb[:, 3:] - np.cross(tab.com[:, :, None], w, axis=1)
    bw = binet_inertia([b.inertia_com for b in model.bodies]) @ w
    return _mirror_upper(np.einsum("lxa,lxbi->iab", bw, br[:, :3])
                         + np.einsum("l,lxi,lxab->iab", tab.mass, c,
                                     _pair_table(_CROSS, w, c)))


def projection_eom(model: ChainModel, q, qd, qdd, applied=None,
                   gravity: bool = True) -> np.ndarray:
    """Virtual-power projection residual (J^b)^T of the stacked per-body
    NE balances (:func:`_balances` less the loads) at the body twists and
    accelerations of the counted forward recursion, as ``idyn`` forms
    them (:func:`screwchain.kinematics._kinematics`); zero at states
    consistent with the applied loads."""
    frames, V, Vd, _ = _kinematics(model, JointState(q, qd, qdd), "body")
    sj = _jacobian(model, frames.poses, "body")
    ext = _loads(model, frames, applied, gravity, "body")
    return sj.J.T @ (_balances(frames, V, Vd) - ext).reshape(-1)


def fdyn(model: ChainModel, q, qd, tau=None, applied=None,
         gravity: bool = True) -> np.ndarray:
    """Forward dynamics qdd = M^-1 (tau - bias).

    One configuration pass gives the composite-rigid-body mass matrix M
    and the inverse of its Cholesky factor; the bias
    J^T (M Jdot qd - ad^T_V M V - loads) is closed-form, Jdot^s_j =
    [V_j, X^s_j], one backward sweep over path sums
    (:meth:`_Configuration.accel`).  Raises ValueError when M is not
    positive definite or tau - bias is not finite.  ``applied`` takes
    per-body external wrenches in body representation.
    """
    return _Configuration(model, _one_sample(model, q)).accel(_one_sample(model, qd), tau,
                                                              applied, gravity)[0]


def spatial_momenta(model: ChainModel, q, qd) -> np.ndarray:
    """Stacked per-body spatial momentum co-screws Pi_i = M^s_i V^s_i;
    qd must be finite (ValueError)."""
    qd = _rate("spatial_momenta", "qd", qd, model.n)
    return _Configuration(model, _one_sample(model, q)).momenta(qd)


def momentum_rhs(model: ChainModel, q, pi_stack, tau=None, applied=None,
                 gravity: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Phase-space right-hand side: rates of the spatial momenta and the
    joint velocities recovered from them.

    The stacked relation M^s_i J^s_i qd = Pi_i contracted with the spatial
    Jacobian is the SPD system M(q) qd = (J^s)^T Pi.  M, the closed-form
    bias and qdd = M^-1 (tau - bias) come from one configuration pass, as
    in :func:`fdyn`, and both solves read its one inverse Cholesky factor.
    The momentum rates are the spatial Newton-Euler balances of all
    bodies (those of :func:`ne_wrench`): accelerations are affine in qdd,
    so they are the balances at qdd = 0 that the bias formed plus M_i
    times the path sums of js_j qdd_j.  ``tau`` may
    be a callable of the recovered qd; applied wrenches are in body
    representation.
    """
    cfg = _Configuration(model, _one_sample(model, q))
    return cfg.momentum_rates(pi_stack, tau, applied, gravity)[:2]


def kinetic_energy(model: ChainModel, q, qd) -> float:
    """Kinetic energy qd . M(q) qd / 2; qd must be finite (ValueError)."""
    qd = _rate("kinetic_energy", "qd", qd, model.n)
    return 0.5 * float(qd @ mass_matrix(model, q) @ qd)


def gravity_potential(model: ChainModel, q) -> float:
    """Potential energy -sum m_i g . r_com_i of the configuration, one
    product over the pose stack."""
    tab = model.tables
    poses = _fk_stacks(model, _one_sample(model, q), relative=False)[0]
    com = np.einsum("nij,nj->ni", poses.rot, tab.com) + poses.trans
    return -float(tab.mass @ (com @ model.gravity))
