"""Reduction of the forced wave field to a constant diagonal plus a regularizing remainder.

The chain conjugates the first-order field

    L(phi) = ( 0, 1 ; (1 + eps a(phi)) Laplacian + eps R(phi), 0 )

through symmetrization, complexification, quasi-periodic time
reparametrization, M decoupling steps and a diagonal reduction, producing

    L4(phi) = i D_M T + R4(phi),   D_M = diag_alpha (mu_alpha I),

with R4 a Fourier multiplier of high negative order plus a finite-rank part.
Every stage is an exact push-forward on the truncation; scalar nonlinearities
(fourth root, square root, reciprocal, exp) go through a phi-grid of at least
4 ell_max points per dimension with the aliasing mass reported.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .blockop import PairedBlockOperator, rank_one_blocks
from .errors import FixedPointError, ParameterError
from .hamiltonian import ExpMap, push_forward
from .multiplier import (
    FourierMultiplier,
    PairedMultiplier,
    multiplier_exponential,
)
from .spectrum import (
    AngleFunction,
    _project_rows,
    enumerate_clusters,
    omega_dphi_inverse,
)

__all__ = [
    "WaveProblem",
    "RegularizationResult",
    "kirchhoff_linearization",
    "symmetrize",
    "complexify_stage",
    "reparametrize_time",
    "decouple_step",
    "reduce_diagonal",
    "run_pipeline",
    "split_multiplier_state",
]


@dataclass
class WaveProblem:
    """Forced wave problem data and truncation policy."""

    d: int
    nu: int
    epsilon: float
    a: AngleFunction
    rank_pairs: list
    j_max: int
    ell_max: int
    q: int = 8
    M: int = None
    gamma: float = 0.05
    tau: float = None
    dd: float = None  # Melnikov space-loss exponent, default 2d
    lattice: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ParameterError("epsilon must be >= 0")
        if self.M is None:
            self.M = max(1, self.q // 2)
        if self.tau is None:
            self.tau = self.nu + 4 * self.d
        if self.dd is None:
            self.dd = 2 * self.d
        self.grid_n = max(4 * self.ell_max, 8)  # phi-grid for nonlinearities
        if self.lattice is None:
            self.lattice = enumerate_clusters(self.d, self.j_max)
        if not self.a.is_real(1e-12):
            raise ParameterError("coefficient a must be real-valued")
        for b, c in self.rank_pairs:
            if not (b.is_real(1e-12) and c.is_real(1e-12)):
                raise ParameterError("rank data must be real-valued")


def kirchhoff_linearization(v0, problem_kwargs):
    """Problem data of the linearized Kirchhoff equation at eps * v0.

    a(phi) = integral |grad v0|^2 dx (normalized), rank pair
    (b1, c1) = (-Lap v0, +Lap v0).
    """
    a = AngleFunction(v0.nu, v0.ell_max)
    for j in v0.modes:
        prod, _ = v0.angle_part(j).product(v0.angle_part(tuple(-x for x in j)))
        a = a + prod * float(sum(x * x for x in j))
    lap = v0.apply_D_power(2.0)
    b1 = lap * (-1.0)
    c1 = lap.copy()
    return WaveProblem(a=a, rank_pairs=[(b1, c1)], **problem_kwargs)


# ---------------------------------------------------------------------------
# grid helpers
# ---------------------------------------------------------------------------


def _phi_grid(nu, grid_n):
    ax = 2.0 * math.pi * np.arange(grid_n) / grid_n
    mesh = np.meshgrid(*([ax] * nu), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts, (grid_n,) * nu


# ---------------------------------------------------------------------------
# rank terms in paired form
# ---------------------------------------------------------------------------


class PairedRankTerm:
    """Rank-one paired operator  U -> left * <right, U>.

    left and right are pairs of SpaceTimeFunctions; the action is
    (l1 * s, l2 * s) with s = <r1, u1> + <r2, u2> (pairings in x).  The
    conjugate-row structure l2 = conj(l1), r1 = conj(r2) is preserved by all
    the multiplier conjugations applied here.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def conjugate(self, t_fwd, t_inv):
        """Replace the term by T^{-1} (term) T: left -> T^{-1} left, right -> T^T right."""
        tt = t_fwd.transpose()
        l1, l2 = _apply_paired_multiplier_pair(t_inv, self.left)
        r1, r2 = _apply_paired_multiplier_pair(tt, self.right)
        return PairedRankTerm((l1, l2), (r1, r2))

    def to_paired_blocks(self, lattice):
        return PairedBlockOperator(rank_one_blocks(self.left[0], self.right[0], lattice),
                                   rank_one_blocks(self.left[0], self.right[1], lattice))


def _apply_paired_multiplier_pair(t, pair):
    """Action of a paired multiplier on a general pair of functions."""
    f1, f2 = pair
    v1 = t.r1.apply(f1) + t.r2.apply(f2)
    v2 = t.r2.conj().apply(f1) + t.r1.conj().apply(f2)
    return v1, v2


def rank_terms_to_paired_blocks(terms, lattice, nu, ell_max, scale=1.0):
    out = PairedBlockOperator.zero(lattice, nu, ell_max)
    for t in terms:
        out = out + t.to_paired_blocks(lattice) * scale
    return out


# ---------------------------------------------------------------------------
# stage 1: symplectic symmetrization
# ---------------------------------------------------------------------------


@dataclass
class Stage1:
    beta: AngleFunction
    beta_inv: AngleFunction
    a0: AngleFunction
    a1: AngleFunction
    rank_pairs_1: list
    diagnostics: dict


def symmetrize(problem, omega):
    """Stage 1: beta = (1 + eps a)^{-1/4} renders the highest order symmetric.

    Returns the L1 coefficient data (beta, a0, a1) and the transformed rank
    functions b = beta |D|^{-1/2} b_k (the remainder keeps its finite-rank
    form).
    """
    eps = problem.epsilon
    grid_n = problem.grid_n
    one_plus = problem.a * eps
    one_plus[(0,) * problem.nu] = one_plus[(0,) * problem.nu] + 1.0
    vals = one_plus.sample(grid_n).real
    if np.min(vals) <= 0.0:
        raise ParameterError(
            f"1 + eps a reaches {np.min(vals):.3e} <= 0: fourth root undefined"
        )
    beta, al1 = AngleFunction.from_samples(vals ** (-0.25), problem.ell_max)
    beta_inv, al2 = AngleFunction.from_samples(vals**0.25, problem.ell_max)
    a1, al3 = AngleFunction.from_samples(np.sqrt(vals), problem.ell_max)
    dbeta = beta.omega_dphi(omega)
    a0_vals = dbeta.sample(grid_n) * (vals**0.25)
    a0, al4 = AngleFunction.from_samples(a0_vals, problem.ell_max)
    rank1 = []
    for b, c in problem.rank_pairs:
        b1, _ = b.apply_D_power(-0.5).mul_angle(beta)
        c1, _ = c.apply_D_power(-0.5).mul_angle(beta)
        rank1.append((b1, c1))
    diag = {
        "beta_minus_1": (beta - AngleFunction.constant(problem.nu, problem.ell_max, 1.0)).sobolev_norm(0.0),
        "beta_inv_minus_1": (beta_inv - AngleFunction.constant(problem.nu, problem.ell_max, 1.0)).sobolev_norm(0.0),
        "a1_minus_1": (a1 - AngleFunction.constant(problem.nu, problem.ell_max, 1.0)).sobolev_norm(0.0),
        "a0_norm": a0.sobolev_norm(0.0),
        "alias": max(al1, al2, al3, al4),
    }
    return Stage1(beta, beta_inv, a0, a1, rank1, diag)


# ---------------------------------------------------------------------------
# stage 2: complex coordinates
# ---------------------------------------------------------------------------


@dataclass
class Stage2:
    field: PairedMultiplier
    rank_terms: list
    diagnostics: dict


def complexify_stage(problem, stage1):
    """Stage 2: L2 = C^{-1} L1 C in the paired representation.

    Multiplier part: top row (-i a1(phi) alpha, -a0(phi)); the rank remainder
    becomes sum_k B_k <C_k, .> + C_k <B_k, .> over pair functions with
    B_k = (i b, -i b) / sqrt(2), derived factor 1/2 on the operator.
    """
    lat = problem.lattice
    g1 = FourierMultiplier.from_angle_function(lat, stage1.a1, order=1.0).scaled(
        [-1j * c.alpha for c in lat.clusters])
    g2 = FourierMultiplier.from_angle_function(lat, stage1.a0 * (-1.0), order=0.0)
    fld = PairedMultiplier(g1, g2)
    s = 2.0 ** (-0.5)
    terms = []
    for b, c in stage1.rank_pairs_1:
        bs, cs = b * s, c * s
        terms.append(
            PairedRankTerm(
                (bs * 1j, bs * (-1j)), (cs.copy(), cs.copy())
            )
        )
        terms.append(
            PairedRankTerm(
                (cs * 1j, cs * (-1j)), (bs.copy(), bs.copy())
            )
        )
    return Stage2(fld, terms, {"hamiltonian": fld.is_hamiltonian(1e-12)})


# ---------------------------------------------------------------------------
# stage 3: quasi-periodic time reparametrization
# ---------------------------------------------------------------------------


@dataclass
class Stage3:
    m: float
    alpha_fn: AngleFunction
    rho_vals: np.ndarray
    a2: AngleFunction
    field: PairedMultiplier
    rank_terms: list
    diagnostics: dict


def invert_torus_shift(alpha_fn, omega, grid_pts):
    """Solve alpha_tilde(theta) = -alpha(theta + omega alpha_tilde(theta)) pointwise.

    Damped fixed point; the smallness regime makes the plain iteration a
    contraction, damping kicks in only if the update grows.
    """
    tol, max_iter = 1e-13, 200
    omega = np.asarray(omega, dtype=float)
    x = np.zeros(grid_pts.shape[0])
    lam = 1.0
    last = math.inf
    for _ in range(max_iter):
        target = -alpha_fn.eval_at(grid_pts + np.outer(x, omega)).real
        step = np.max(np.abs(target - x))
        if step <= tol:
            return target
        if step > last:
            lam = lam * 0.5
            if lam < 1e-3:
                raise FixedPointError(
                    f"diffeomorphism inversion diverging (step {step:.3e})"
                )
        x = (1 - lam) * x + lam * target
        last = step
    raise FixedPointError(
        f"diffeomorphism inversion: step {step:.3e} > tol {tol:.1e} "
        f"after {max_iter} iterations"
    )


def reparametrize_time(problem, stage1, stage2, omega):
    """Stage 3: tau = t + alpha(omega t) makes the |D| coefficient the constant m."""
    nu, L, grid_n = problem.nu, problem.ell_max, problem.grid_n
    lat = problem.lattice
    omega = np.asarray(omega, dtype=float)
    m = float(stage1.a1.mean().real)
    if m == 0.0:
        raise ParameterError("mean coefficient m vanished")
    h = stage1.a1 * (1.0 / m)
    h[(0,) * nu] = h[(0,) * nu] - 1.0
    alpha_fn = omega_dphi_inverse(h, omega, gamma=problem.gamma, tau=problem.tau)
    grid_pts, shape = _phi_grid(nu, grid_n)
    atil = invert_torus_shift(alpha_fn, omega, grid_pts)
    shifted = grid_pts + np.outer(atil, omega)
    domega_alpha = alpha_fn.omega_dphi(omega)
    rho_vals = 1.0 + domega_alpha.eval_at(shifted).real
    if np.min(np.abs(rho_vals)) < 1e-10:
        raise ParameterError("reparametrization density rho vanished")
    # honest highest-order coefficient: (A^{-1} a1) / rho, computed on the grid
    w1_vals = stage1.a1.eval_at(shifted).real / rho_vals
    w1, alias_w1 = AngleFunction.from_samples(w1_vals.reshape(shape), L)
    w1_const = complex(w1[(0,) * nu])
    w1_fluct = w1 - AngleFunction.constant(nu, L, w1_const)
    # a2 = rho^{-1} A^{-1}[a0]
    a2_vals = stage2.field.r2.row(0).eval_at(shifted) * (-1.0) / rho_vals
    a2, alias_a2 = AngleFunction.from_samples(a2_vals.reshape(shape), L)
    # transformed rank functions: 2^{-1/2} goes in at stage 2; here the extra
    # rho^{-1} splits as rho^{-1/2} on each side of every term
    scale_vals = rho_vals ** (-0.5)
    aliases = [alias_w1, alias_a2]

    def reproject(f):
        vals = [f.angle_part(j).eval_at(shifted) * scale_vals for j in f.modes]
        rows, alias = _project_rows(np.reshape(vals, (len(vals),) + shape), L)
        aliases.extend(alias)
        return f._like(f.modes, rows)

    new_terms = [PairedRankTerm(tuple(map(reproject, t.left)), tuple(map(reproject, t.right)))
                 for t in stage2.rank_terms]
    g1 = FourierMultiplier.from_alpha_symbol(lat, nu, L, lambda a: -1j * m * a, 1.0)
    g2 = FourierMultiplier.from_angle_function(lat, a2 * (-1.0), order=0.0)
    fld = PairedMultiplier(g1, g2)
    # round-trip residual of the inverse diffeomorphism
    fwd_back = atil + alpha_fn.eval_at(shifted).real
    diag = {
        "m": m,
        "w1_mean": w1_const.real,
        "w1_nonconstant": w1_fluct.sobolev_norm(0.0),
        "diffeo_roundtrip": float(np.max(np.abs(fwd_back))),
        "alias": max(aliases),
        "alpha_norm": alpha_fn.sobolev_norm(0.0),
        "a2_norm": a2.sobolev_norm(0.0),
        "rho_minus_1": float(np.max(np.abs(rho_vals - 1.0))),
    }
    return Stage3(m, alpha_fn, rho_vals, a2, fld, new_terms, diag)


# ---------------------------------------------------------------------------
# stage 4: block decoupling, one step
# ---------------------------------------------------------------------------


def split_multiplier_state(fld, m):
    """Extract (r, q) with top row = (-i m alpha - ... , .): g1 = -i(m alpha + r)...

    Conventions: g1 = -i m alpha + i r (diagonal remainder symbol r), and
    g2 = i q (off-diagonal symbol q).
    """
    g = fld.r1.plus_mean([1j * m * c.alpha for c in fld.lattice.clusters])
    g.order = -1.0
    return g * (-1j), fld.r2 * (-1j)


def decouple_step(fld, n, m, omega, problem):
    """One decoupling step: remove the off-diagonal symbol at its current order.

    v_n = -i q_n / (2 m alpha); the conjugation by exp(i V_n) is an exact
    push-forward in the paired multiplier algebra.  Returns the new field,
    the stage map exp(i V_n) with its inverse by sigma, V_n and diagnostics
    (including the exact homological residual [i m T |D|, i V_n] + Q_n).
    """
    if m == 0.0:
        raise ParameterError("decoupling undefined at m = 0")
    lat, nu, L = fld.lattice, fld.r1.nu, fld.r1.ell_max
    _, q = split_multiplier_state(fld, m)
    vn = q.scaled([-1j / (2.0 * m * c.alpha) for c in lat.clusters], -(n + 1.0))
    gen = PairedMultiplier(
        FourierMultiplier.zero(lat, nu, L, order=-(n + 1.0)), vn * 1j
    )
    fwd, _ = multiplier_exponential(gen)
    stage = ExpMap(fwd, fwd.sigma())
    new_fld = push_forward(fld, stage, omega)
    # exact homological residual on stored symbols
    dmult = PairedMultiplier.diagonal(
        FourierMultiplier.from_alpha_symbol(lat, nu, L, lambda a: -1j * m * a, 1.0)
    )
    qmult = PairedMultiplier(
        FourierMultiplier.zero(lat, nu, L), q * 1j
    )
    comm = dmult.compose(gen) - gen.compose(dmult) + qmult
    resid = comm.norm(0.0, 0.0)
    r_new, q_new = split_multiplier_state(new_fld, m)
    q_new.order = -(n + 1.0)
    r_new.order = -1.0
    diag = {
        "n": n,
        "homological_residual": resid,
        "v_norm": vn.norm(-(n + 1.0), 0.0),
        "q_next_norm": q_new.norm(-(n + 1.0), 0.0),
        "r_next_norm": r_new.norm(-1.0, 0.0),
    }
    return new_fld, stage, vn, diag


# ---------------------------------------------------------------------------
# stage 5: diagonal reduction
# ---------------------------------------------------------------------------


def reduce_diagonal(fld, m, omega, problem):
    """Remove the phi dependence of the diagonal remainder symbol r_M.

    c(alpha) is the phi-average of r_M (real by self-adjointness);
    e = (omega . dphi)^{-1}(r_M - c); the conjugation by exp(iE) is exact on
    multipliers and maps the off-diagonal symbol to q_M exp(-2ie).
    """
    lat, nu, L = fld.lattice, fld.r1.nu, fld.r1.ell_max
    grid_n = problem.grid_n
    r_m, q_m = split_multiplier_state(fld, m)
    if not r_m.is_real_symbol(1e-10):
        raise ParameterError("diagonal remainder symbol is not real")
    c_raw = r_m.mean_per_cluster().real
    h = r_m.plus_mean(-c_raw)
    e = FourierMultiplier(lat, nu, L, -1.0, [
        omega_dphi_inverse(h.row(i), omega, problem.gamma, problem.tau).coeffs
        for i in range(len(lat.clusters))])
    exp_ie, alias = e.map_pointwise(lambda v: np.exp(1j * v), grid_n, order=0.0)
    fwd = PairedMultiplier.diagonal(exp_ie)
    stage = ExpMap(fwd, fwd.sigma())
    new_fld = push_forward(fld, stage, omega)
    # residual of the homological equation, worst cluster
    lhs = (e.omega_dphi(omega) * (-1.0) + r_m).plus_mean(-c_raw)
    resid = lhs.norm(0.0, 0.0)
    # phi-independence of the final diagonal
    g_mean = new_fld.r1.mean_per_cluster()
    mu = (1j * g_mean).real
    fluct = new_fld.r1.plus_mean(-g_mean).norm(0.0, 0.0)
    diag = {
        "c_raw_max": float(np.max(np.abs(c_raw))) if len(c_raw) else 0.0,
        "homological_residual": resid,
        "diagonal_fluctuation": fluct,
        "alias": alias,
    }
    return new_fld, stage, c_raw, e, mu, diag


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass
class RegularizationResult:
    m: float
    c: np.ndarray
    mu: np.ndarray
    r4: PairedBlockOperator
    r4_multiplier: PairedMultiplier
    r4_rank_terms: list
    t_fwd: PairedMultiplier
    t_bwd: PairedMultiplier
    stage1: Stage1
    stage3: Stage3
    transformation_log: list
    diagnostics: dict

    def d_blocks(self, lattice):
        """Initial diagonal blocks mu_alpha I_alpha for the iteration stage."""
        return {
            c.alpha_sq: self.mu[i] * np.eye(c.n_alpha)
            for i, c in enumerate(lattice.clusters)
        }


def run_pipeline(problem, omega):
    """Full stage chain; returns the reduced data and the conjugating maps."""
    omega = np.asarray(omega, dtype=float)
    lat, nu, L = problem.lattice, problem.nu, problem.ell_max
    log = []
    s1 = symmetrize(problem, omega)
    log.append({"stage": "symmetrize", "diagnostics": s1.diagnostics})
    s2 = complexify_stage(problem, s1)
    log.append({"stage": "complexify", "diagnostics": s2.diagnostics})
    s3 = reparametrize_time(problem, s1, s2, omega)
    log.append({"stage": "reparametrize", "diagnostics": s3.diagnostics})
    fld = s3.field
    eye = PairedMultiplier.identity(lat, nu, L)
    t = ExpMap(eye, eye)
    decouple_diag = []
    for n in range(problem.M):
        fld, stage, vn, dg = decouple_step(fld, n, s3.m, omega, problem)
        t = t.then(stage)
        decouple_diag.append(dg)
        log.append({"stage": f"decouple_{n}", "diagnostics": dg})
    fld, stage, c_raw, e_sym, mu, dg5 = reduce_diagonal(fld, s3.m, omega, problem)
    t = t.then(stage)
    log.append({"stage": "reduce_diagonal", "diagnostics": dg5})
    # off-diagonal multiplier remainder of the reduced field
    _, q_m4 = split_multiplier_state(fld, s3.m)
    q_m4.order = -float(problem.M)
    r4_mult = PairedMultiplier(
        FourierMultiplier.zero(lat, nu, L, order=-float(problem.M)), q_m4 * 1j
    )
    # finite-rank part conjugated through T
    rank_terms = [term.conjugate(t.forward, t.inverse) for term in s3.rank_terms]
    r4 = r4_mult.to_paired_blocks() + rank_terms_to_paired_blocks(
        rank_terms, lat, nu, L, scale=problem.epsilon
    )
    c_final = mu - s3.m * np.array([c.alpha for c in lat.clusters])
    diagnostics = {
        "m": s3.m,
        "w1_nonconstant": s3.diagnostics["w1_nonconstant"],
        "c_final_max_weighted": float(
            np.max(np.abs(c_final) * np.array([c.alpha for c in lat.clusters]))
        ) if len(c_final) else 0.0,
        "r4_decay_norm_s0": r4.decay_norm(0.0),
        "diagonal_fluctuation": dg5["diagonal_fluctuation"],
        "decouple": decouple_diag,
        "hamiltonian_residual": r4.hamiltonian_residual(0.0),
    }
    return RegularizationResult(
        m=s3.m,
        c=c_final,
        mu=mu,
        r4=r4,
        r4_multiplier=r4_mult,
        r4_rank_terms=rank_terms,
        t_fwd=t.forward,
        t_bwd=t.inverse,
        stage1=s1,
        stage3=s3,
        transformation_log=log,
        diagnostics=diagnostics,
    )
