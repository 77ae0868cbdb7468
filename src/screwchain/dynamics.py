"""Newton-Euler dynamics: per-body wrench balances in every representation,
recursive inverse dynamics with operation counting, closed-form equations of
motion (mass matrix, Coriolis matrix, Christoffel symbols), forward dynamics,
and the spatial-momentum phase-space form.

Recursive Newton-Euler is one algorithm in three representations: the
motion of :mod:`screwchain.kinematics` followed by the one backward
wrench sweep here, both over the frame table of their representation
(:func:`screwchain.kinematics._frame_table`).  The motion is the counted
forward recursion in body and hybrid form, and in spatial form the one
path-sum kernel (:func:`screwchain.kinematics._spatial_motion`).  The
balances of all bodies are one stacked product in every form (the kernel
forms the spatial ones with the motion); the sweep then only carries
wrenches to the parents, unchanged in spatial form (subtree sums) and by
the transposed parent transforms in body and hybrid form.
Everything else reads one configuration pass (:class:`_Configuration`):
the pose stack once, the spatial frame table at it and the
composite-rigid-body mass matrix, whose inverse Cholesky factor, made
once per pass, solves.  The bias J^T (M Jdot qd - ad^T_V M V - loads) of
``fdyn`` and ``momentum_rhs`` is the kernel at qdd = 0 and one backward
sweep; the momentum form's rates are those balances plus M_i times the
path sums of js_j qdd_j.

Each public call builds its own pass, except ``fdyn``: it keeps its
last pass for the next call at the same model object and the same bytes
of q (:func:`_configuration`), which is how a state-form sample of
:func:`screwchain.integrators.chain_simulate` reads the pass its RK4
stage solved on.  A momentum-form stage builds its pass and hands it to
its sample.

The closed-form Coriolis matrix and Christoffel symbols contract the one
bracket table of :mod:`screwchain.kinematics` (``_bracket_table``): the
Lie brackets [J_la, J_lb] of each body's body-fixed Jacobian columns,
against the body inertias; the Coriolis matrix's Jacobian rate has
bracket columns too (dJ_lj/dq_k = [J_lj, J_lk] for j < k).

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
    _CROSS,
    _Frames,
    _PLAIN,
    _PoseStack,
    _SE3_BRACKET,
    _SweepOps,
    _bracket_table,
    _check_rep,
    _fk_stacks,
    _frame_table,
    _jacobian,
    _kinematics,
    _pair_table,
    _check_indices,
    _read_inertias,
    _spatial_motion,
    _twist_map,
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

    def count(self, field, times=1):
        setattr(self.report, field, getattr(self.report, field) + times)


def predict_op_counts(rep: str, n: int) -> OpCountReport:
    """Structural operation counts of inverse dynamics, exact on any tree
    of n bodies with one root: body 3(n-1) screw transforms and 2n-1
    brackets; spatial n screw plus n tensor transforms and 2n-1 brackets;
    hybrid 3n-3 translational plus n rotational screw transforms, n tensor
    rotations, 3n-1 brackets.  On a forest of r roots, r replaces each 1
    (body: 3(n-r) transforms and 2n-r brackets).
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
    at the poses
    (:func:`screwchain.kinematics._frame_table`), each body's inertia
    times the acceleration of the gravity field.  The weight enters the
    recursions as a load in every representation rather than as a
    fictitious base acceleration.
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
    from .kinematics import accelerations

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
    cnt = _Counter(work_rep, model.n)
    frames, cache, balances = _kinematics(model, JointState(q, qd, qdd), work_rep, 1, cnt)
    ext = _loads(model, frames, applied, gravity, rep)
    Q, W = _backward_sweep(model, frames, cache.twists, cache.accels, ext, cnt, balances)
    if full:
        return IdynResult(Q, W, cnt.report, work_rep)
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
                    ops: _SweepOps = _PLAIN, balances=None) -> tuple[np.ndarray, np.ndarray]:
    """The one Newton-Euler wrench recursion, from the leaves to the roots,
    over the frame table ``frames`` and the twists V and accelerations Vd
    of all bodies in its representation.

    Each body's joint wrench is its balance (``balances``, else
    :func:`_balances`) less its load ``ext``, plus the joint wrenches of
    its children.  A wrench passes to the parent unchanged in spatial
    form, so there the joint wrenches are subtree sums; in body and
    hybrid form the loop carries each by the transpose of its parent
    transform.  Returns (joint forces, joint wrenches), each force the
    projection of its joint wrench on the joint screw.
    """
    W = (_balances(frames, V, Vd, ops) if balances is None else balances) - ext
    if frames.rep == "spatial":
        W = model.tables.path @ W
    else:
        kind = "translations_screw" if frames.rep == "hybrid" else None
        for i, p in reversed(model.links):
            W[p] += ops.xform(frames.parent[i].T, W[i], kind)
    return (frames.screws * W).sum(axis=1), W


def _balances(frames: _Frames, V, Vd, ops: _SweepOps = _PLAIN) -> np.ndarray:
    """The Newton-Euler balances of all bodies in the representation of
    the frame table ``frames`` from their twists V and accelerations Vd,
    one stacked product: M Vdot - ad^T_U M U with U = V in body and
    spatial form and U = (omega, 0) in hybrid form, where -ad^T_U M U is
    [omega, M omega].  The n co-brackets go through ``ops``, beside the
    brackets [U_i, U_i] = 0."""
    if frames.rep == "hybrid":
        V = np.concatenate((V[:, :3], np.zeros_like(V[:, 3:])), axis=1)
    mv = (frames.inertias @ np.array([V, Vd])[..., None])[..., 0]  # M_i U_i and M_i Vdot_i
    return mv[1] - ops.brackets(V, np.concatenate((V, mv[0]), axis=1), 0)[1]


# --------------------------------------------------------------------------
# Closed-form equations of motion
# --------------------------------------------------------------------------

class _Configuration:
    """One configuration pass at q: the absolute pose stack of
    :func:`_fk_stacks` once, and from it the spatial frame table
    ``frames`` (the spatial joint screws js, body inertias and pose stack
    among it) and the composite-rigid-body mass matrix.  The pass ``fdyn``
    keeps is shared with the next reader at its configuration, so nothing
    writes a pass's arrays; a public function hands out new arrays or
    those of a pass of its own.

    Spatial inertias add without transformation, so with Ic_k the inertia
    of the subtree rooted at body k, M_jk = js_j . Ic_k js_k for every j
    on the path to k, and zero off the paths; ``icjs`` keeps Ic_k js_k,
    which also gives the total momentum (:meth:`total_momentum`).  The
    twists, the accelerations at qdd = 0 and the balances of :meth:`accel`
    are the path sums of :func:`screwchain.kinematics._spatial_motion`.

    At the first :meth:`solve` M = L L^T is factored, and L^-1 is kept
    (``_low``), so every solve is two matrix products.
    """

    def __init__(self, model: ChainModel, q):
        n = model.n
        q = np.asarray(q, dtype=float).reshape(n)
        self.model = model
        self.key = q.tobytes()
        self.frames = frames = _frame_table(model, _fk_stacks(model, q, relative=False)[0],
                                            None, "spatial")
        tab, js = model.tables, frames.screws
        ic = (tab.path @ frames.inertias.reshape(n, 36)).reshape(n, 6, 6)
        self.icjs = (ic @ js[..., None])[..., 0]  # Ic_k js_k
        g = js @ self.icjs.T  # g[j, k] = js_j . Ic_k js_k
        self.mass = np.where(tab.on_path, g, np.where(tab.on_path.T, g.T, 0.0))
        self._low = None  # L^-1 for the Cholesky factor L of the mass matrix

    def twists(self, qd) -> np.ndarray:
        """Spatial twists V^s_i: js_j qd_j summed over the path to body i."""
        return self.model.tables.path.T @ (self.frames.screws * qd[:, None])

    def potential(self) -> float:
        """Potential energy -g . sum h_i, h_i = m_i r_com_i the first moment
        of body i's pseudo-inertia in the frame table."""
        return -float(self.model.gravity @ self.frames.pseudo[:, :3, 3].sum(axis=0))

    def total_momentum(self, qd) -> np.ndarray:
        """The spatial momentum of all bodies, sum_i M^s_i V^s_i: each
        joint's rate times the momentum Ic_k js_k of its subtree per unit rate."""
        return np.asarray(qd, dtype=float).reshape(self.model.n) @ self.icjs

    def momenta(self, qd) -> np.ndarray:
        """Per-body spatial momenta M^s_i V^s_i."""
        qd = np.asarray(qd, dtype=float).reshape(self.model.n)
        return np.einsum("ijk,ik->ij", self.frames.inertias, self.twists(qd))

    def solve(self, b) -> np.ndarray:
        """M^-1 b = L^-T (L^-1 b) by :func:`_spd_solve`, with the one kept L^-1."""
        if self._low is None:
            self._low = _spd_factor(self.mass)
        return _spd_solve(self.mass, b, self._low)

    def accel(self, qd, tau, applied, gravity: bool):
        """(qdd, twists, accelerations and balances at qdd = 0),
        qdd = M^-1 (tau - bias) with the bias J^T (M Jdot qd - ad^T_V M V - loads)
        from the path sums of ``_spatial_motion`` and one :func:`_backward_sweep`.
        ``tau`` may be None; ``applied`` is in body representation."""
        n = self.model.n
        qd = np.asarray(qd, dtype=float).reshape(n)
        tau = np.zeros(n) if tau is None else np.asarray(tau, dtype=float).reshape(n)
        applied = _applied_wrenches(n, applied)
        frames = self.frames
        (V, vd), rates = _spatial_motion(self.model, frames, qd)
        loads = (frames.gravity if gravity and applied is None
                 else _loads(self.model, frames, applied, gravity, "body"))
        bias = _backward_sweep(self.model, frames, V, vd, loads, balances=rates)[0]
        return self.solve(tau - bias), V, vd, rates

    def momentum_rates(self, pi_stack, tau, applied, gravity: bool):
        """(rates of the spatial momenta, qd, qdd) at the stacked momenta
        ``pi_stack``, as :func:`momentum_rhs` describes; ``tau`` may be a
        callable of the recovered qd."""
        model, js = self.model, self.frames.screws
        # (J^s)^T Pi: each joint screw pairs with the momentum of its subtree
        subtree = model.tables.path @ np.asarray(pi_stack, dtype=float).reshape(model.n, 6)
        qd = self.solve((js * subtree).sum(axis=1))
        qdd, _, _, rates = self.accel(qd, tau(qd) if callable(tau) else tau, applied, gravity)
        return rates + (self.frames.inertias @ self.twists(qdd)[..., None])[..., 0], qd, qdd


# The last configuration pass of fdyn, reused as the module docstring explains.
_last_configuration: _Configuration | None = None


def _configuration(model: ChainModel, q) -> _Configuration:
    """The :class:`_Configuration` at (model, q): the last one kept when
    it was built for this model object at a q with the same bytes,
    otherwise a new one, which replaces it."""
    global _last_configuration
    q = np.asarray(q, dtype=float).reshape(model.n)
    last = _last_configuration
    if last is not None and last.model is model and last.key == q.tobytes():
        return last
    _last_configuration = cfg = _Configuration(model, q)
    return cfg


def mass_matrix(model: ChainModel, q) -> np.ndarray:
    """Generalized mass matrix by the composite-rigid-body algorithm."""
    return _Configuration(model, q).mass


def _spd_factor(m) -> np.ndarray:
    """L^-1 for the Cholesky factor L of a symmetric positive-definite m,
    to solve m x = b as L^-T (L^-1 b).  Raises ValueError when m holds a
    NaN or an infinity (which numpy would carry through silently) or when
    m is not positive definite."""
    if not np.isfinite(m).all():
        raise ValueError("array must not contain infs or NaNs")
    try:
        return np.linalg.inv(np.linalg.cholesky(m))
    except np.linalg.LinAlgError as err:
        raise ValueError(f"matrix is not positive definite: {err}") from None


def _spd_solve(m, b, low=None) -> np.ndarray:
    """x = L^-T (L^-1 b) solves m x = b, with the checks of :func:`_spd_factor`
    and b finite; ``low`` is the inverse factor L^-1 of m when the caller
    kept one."""
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if low is None:
        low = _spd_factor(m)
    return low.T @ (low @ b)


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
    NE balances (:func:`_balances` less the loads); zero at states
    consistent with the applied loads."""
    frames, cache, _ = _kinematics(model, JointState(q, qd, qdd), "body", 1)
    sj = _jacobian(model, frames.poses, "body")
    ext = _loads(model, frames, applied, gravity, "body")
    return sj.J.T @ (_balances(frames, cache.twists, cache.accels) - ext).reshape(-1)


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
    return _configuration(model, q).accel(qd, tau, applied, gravity)[0]


def spatial_momenta(model: ChainModel, q, qd) -> np.ndarray:
    """Stacked per-body spatial momentum co-screws Pi_i = M^s_i V^s_i."""
    return _Configuration(model, q).momenta(qd)


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
    return _Configuration(model, q).momentum_rates(pi_stack, tau, applied, gravity)[:2]


def kinetic_energy(model: ChainModel, q, qd) -> float:
    m = mass_matrix(model, q)
    qd = np.asarray(qd, dtype=float)
    return 0.5 * float(qd @ m @ qd)


def gravity_potential(model: ChainModel, q) -> float:
    """Potential energy -sum m_i g . r_com_i of the configuration, one
    product over the pose stack."""
    tab = model.tables
    poses = _fk_stacks(model, q, relative=False)[0]
    com = np.einsum("nij,nj->ni", poses.rot, tab.com) + poses.trans
    return -float(tab.mass @ (com @ model.gravity))
