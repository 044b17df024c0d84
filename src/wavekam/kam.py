"""Quadratic iteration driving the paired remainder to zero.

Each step solves the homological equation blockwise through the Sylvester
operators

    A^-(ell,a,b) X = omega.ell X + D_a X - X D_b,
    A^+(ell,a,b) X = omega.ell X + D_a X + X conj(D_b),

by Hermitian eigendecomposition of the current diagonal blocks: in the joint
eigenbasis the solve is a division by omega.ell + lambda -+ mu, and the
inverse norm is exactly 1/min|denominator|.  Dense Kronecker solves exist
only in the test oracle.

Melnikov verdicts (``resonance.divisor_check``, the classifier's kernel too)
bound those denominators by gamma / (alpha^dd beta^dd <ell>^tau) (differences,
excluding (0, a, a)) and gamma (alpha+beta) / <ell>^tau (sums) on the ball
|ell| <= N_k; ties count as failure (closed condition).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .blockop import (
    BlockOperator,
    PairedBlockOperator,
    diagonal_part,
    operator_exponential,
    smoothing_projector,
)
from .errors import (NonConvergenceError, ParameterError, ResonanceError,
                     ResourceLimitError)
from .hamiltonian import ExpMap, push_forward
from .resonance import divisor_check, sorted_combos
from .spectrum import default_s0, diophantine_check

__all__ = [
    "KamConfig",
    "KamState",
    "SylvesterOperator",
    "sylvester_solve",
    "assemble_homological_solution",
    "kam_step",
    "kam_run",
    "final_eigenvalues",
]

# Largest ell box one Melnikov scan may enumerate: ~100 MB of arrays for
# nu = 2.  The desk problem's largest scan (N = 269) has 2.9e5, its next one
# (N = 1117) would have 5e6.
MAX_SCAN_ELLS = 10**6


@dataclass
class KamConfig:
    """Iteration constants; defaults follow the measure-estimate choices."""

    nu: int
    d: int
    gamma: float
    tau: float = None
    dd: float = None
    n0: int = 4
    chi: float = 1.5
    max_steps: int = 12
    target_residual: float = 1e-12
    s_low: float = None
    s_high: float = None
    stall_ratio: float = 0.9
    stall_window: int = 3

    def __post_init__(self):
        if self.tau is None:
            self.tau = self.nu + 4 * self.d
        if self.dd is None:
            self.dd = 2.0 * self.d
        s0 = default_s0(self.nu, self.d)
        if self.s_low is None:
            self.s_low = 2.0 * s0
        if self.s_high is None:
            self.s_high = self.s_low + 2.0

    @property
    def a_exp(self):
        """a := 4 tau + 8 dd + 3."""
        return 4.0 * self.tau + 8.0 * self.dd + 3.0

    @property
    def b_exp(self):
        return self.a_exp + 1.0

    def n_k(self, k):
        """N_k = N0^(chi^k), rounded up; N_{-1} = 1."""
        if k < 0:
            return 1
        return int(math.ceil(self.n0 ** (self.chi**k)))


@dataclass
class KamState:
    step: int
    d_blocks: dict
    remainder: PairedBlockOperator
    accumulated: ExpMap
    history: list = field(default_factory=list)
    step_maps: list = field(default_factory=list)
    keep_maps: bool = False

    def eig_tables(self):
        """Eigenvalues of each diagonal block, cached per call."""
        out = {}
        for a_sq in sorted(self.d_blocks):
            out[a_sq] = np.linalg.eigvalsh(self.d_blocks[a_sq])
        return out

    def hermitian_residual(self):
        return max(
            float(np.max(np.abs(m - m.conj().T)))
            for m in self.d_blocks.values()
        )


class SylvesterOperator:
    """One blockwise homological operator A^sign(ell, alpha, beta)."""

    __slots__ = ("ell", "a_sq", "b_sq", "sign", "left", "right", "omega_ell",
                 "_eig")

    def __init__(self, ell, a_sq, b_sq, sign, left, right, omega):
        if sign not in ("-", "+"):
            raise ParameterError("sign must be '-' or '+'")
        self.ell = tuple(int(x) for x in ell)
        self.a_sq = int(a_sq)
        self.b_sq = int(b_sq)
        self.sign = sign
        self.left = np.asarray(left, dtype=complex)
        self.right = np.asarray(right, dtype=complex)
        self.omega_ell = float(np.dot(np.asarray(omega, float), self.ell))
        self._eig = None

    @classmethod
    def from_state(cls, state, lattice, ell, a_sq, b_sq, sign, omega):
        left = state.d_blocks[a_sq]
        right = state.d_blocks[b_sq]
        if sign == "+":
            perm = lattice.cluster(b_sq).neg_perm
            right = np.conj(right[np.ix_(perm, perm)])
        return cls(ell, a_sq, b_sq, sign, left, right, omega)

    def eig(self):
        if self._eig is None:
            la, ua = np.linalg.eigh(self.left)
            lb, ub = np.linalg.eigh(self.right)
            self._eig = (la, ua, lb, ub)
        return self._eig

    def denominators(self):
        la, _, lb, _ = self.eig()
        if self.sign == "-":
            grid = la[:, None] - lb[None, :]
        else:
            grid = la[:, None] + lb[None, :]
        return self.omega_ell + grid


def sylvester_solve(syl, rhs):
    """Solve A^sign X = -i rhs in the joint eigenbasis.

    Returns (X, inverse_norm).  A vanishing denominator raises
    ResonanceError carrying the offending mode.
    """
    la, ua, lb, ub = syl.eig()
    den = syl.denominators()
    dmin = float(np.min(np.abs(den)))
    if dmin == 0.0:
        raise ResonanceError(syl.ell, syl.a_sq, syl.b_sq, syl.sign, 0.0)
    rhs = np.asarray(rhs, dtype=complex)
    y = ua.conj().T @ (-1j * rhs) @ ub
    x = ua @ (y / den) @ ub.conj().T
    return x, 1.0 / dmin


def _melnikov_scan(state, lattice, config, omega, n_cut, nu):
    """First failing Melnikov condition for |ell| <= N and alpha, beta <= N.

    Cluster pairs outer; per pair the difference condition over all ell,
    then the sum condition, each one ``divisor_check`` (ties fail) on the
    eigenvalues of D_a and of D_b (conj-permuted for the sum).  The ell box
    |ell|_inf <= N is enumerated only up to MAX_SCAN_ELLS points.
    """
    n_box = (2 * n_cut + 1) ** nu
    if n_box > MAX_SCAN_ELLS:
        raise ResourceLimitError(n_cut, nu, n_box, MAX_SCAN_ELLS)
    ells = np.indices((2 * n_cut + 1,) * nu).reshape(nu, -1).T - n_cut
    ells = ells[np.sum(ells * ells, axis=1) <= n_cut * n_cut]
    ell_arr = ells.astype(float)
    omega_ell = ell_arr @ np.asarray(omega, float)
    bracket_tau = np.maximum(1.0, np.linalg.norm(ell_arr, axis=1)) ** config.tau
    order = np.argsort(omega_ell, kind="stable")
    xs, bracket_tau = omega_ell[order], bracket_tau[order]
    at_zero = ~ells[order].any(axis=1)
    eigs = state.eig_tables()
    eigs_conj = {}
    for a_sq, mat in state.d_blocks.items():
        perm = lattice.cluster(a_sq).neg_perm
        eigs_conj[a_sq] = np.linalg.eigvalsh(np.conj(mat[np.ix_(perm, perm)]))
    inside = [c for c in lattice.clusters if c.alpha <= n_cut]
    for ca, cb in itertools.product(inside, inside):
        a_sq, b_sq = ca.alpha_sq, cb.alpha_sq
        thr_minus = config.gamma / ((ca.alpha * cb.alpha) ** config.dd * bracket_tau)
        thr_plus = config.gamma * (ca.alpha + cb.alpha) / bracket_tau
        for sign, right, thr in (("-", eigs[b_sq], thr_minus),
                                 ("+", eigs_conj[b_sq], thr_plus)):
            pos, gap, bad = divisor_check(
                xs, sorted_combos(eigs[a_sq], right, sign), thr, closed=True)
            if sign == "-" and a_sq == b_sq:
                bad &= ~at_zero[pos]
            if bad.any():  # report the first failing ell in lexicographic order
                p = np.flatnonzero(bad)[np.argmin(order[pos[bad]])]
                return False, ResonanceError(ells[order[pos[p]]], a_sq, b_sq,
                                             sign, gap[p], thr[pos[p]])
    return True, None


def assemble_homological_solution(state, lattice, config, omega, n_cut):
    """Psi with -omega.dphi Psi + [D, Psi] + Pi_N R = Pi_N R_diag.

    On the stored top row (r1, r2) the blockwise equations read
    A^-(ell,a,b) psi1 = -i r1_hat(ell),  A^+(ell,a,b) psi2 = -i r2_hat(ell),
    with psi1 zeroed at (0, a, a) where the diagonal is absorbed instead.
    """
    rem = state.remainder
    nu = rem.r1.nu
    psi1 = BlockOperator(lattice, nu, rem.r1.ell_max)
    psi2 = BlockOperator(lattice, nu, rem.r2.ell_max)
    zero = (0,) * nu
    for (ell, a_sq, b_sq), mat in sorted(rem.r1.blocks.items()):
        size = max(
            np.linalg.norm(ell), lattice.alpha(a_sq), lattice.alpha(b_sq)
        )
        if size > n_cut:
            continue
        if ell == zero and a_sq == b_sq:
            continue
        syl = SylvesterOperator.from_state(
            state, lattice, ell, a_sq, b_sq, "-", omega
        )
        x, _ = sylvester_solve(syl, mat)
        psi1.set_block(ell, a_sq, b_sq, x)
    for (ell, a_sq, b_sq), mat in sorted(rem.r2.blocks.items()):
        size = max(
            np.linalg.norm(ell), lattice.alpha(a_sq), lattice.alpha(b_sq)
        )
        if size > n_cut:
            continue
        syl = SylvesterOperator.from_state(
            state, lattice, ell, a_sq, b_sq, "+", omega
        )
        x, _ = sylvester_solve(syl, mat)
        psi2.set_block(ell, a_sq, b_sq, x)
    return PairedBlockOperator(psi1, psi2)


def kam_step(state, lattice, config, omega):
    """One reducibility step; raises ResonanceError when a Melnikov bound fails.

    The new remainder is computed term by term from the conjugation identity,
    with the order >= 2 commutator series evaluated through the telescoping
    sum Psi^i (Pi_N R_diag - Pi_N R) Psi^j.
    """
    n_cut = config.n_k(state.step)
    ok, err = _melnikov_scan(state, lattice, config, omega, n_cut, state.remainder.r1.nu)
    if not ok:
        raise err
    rem = state.remainder
    nu = rem.r1.nu
    zero = (0,) * nu
    psi = assemble_homological_solution(state, lattice, config, omega, n_cut)
    low, high = smoothing_projector(rem.r1, n_cut)
    low2, high2 = smoothing_projector(rem.r2, n_cut)
    rem_low = PairedBlockOperator(low, low2)
    rem_high = PairedBlockOperator(high, high2)
    r_diag_low = PairedBlockOperator(
        diagonal_part(low), BlockOperator(lattice, nu, rem.r1.ell_max)
    )
    # new diagonal: D_+ = D + Pi_N R_diag, i.e. blocks += i r1_hat(0)
    new_blocks = {}
    for a_sq, mat in state.d_blocks.items():
        upd = mat.copy()
        if lattice.alpha(a_sq) <= n_cut:
            upd = upd + 1j * rem.r1.block(zero, a_sq, a_sq)
        new_blocks[a_sq] = upd
    phi = ExpMap.from_generator(psi)
    eye = PairedBlockOperator.identity(lattice, nu, rem.r1.ell_max)
    phi_minus = phi.forward - eye
    phi_inv_minus = phi.inverse - eye
    # telescoped commutator series for Psi_{>=2}
    g = r_diag_low - rem_low
    series = PairedBlockOperator.zero(lattice, nu, rem.r1.ell_max)
    powers = [eye, psi]
    g_right = [g, g.compose(psi)]
    max_n = 24
    fact = 1.0
    for n in range(2, max_n + 1):
        powers.append(powers[-1].compose(psi))
        g_right.append(g_right[-1].compose(psi))
        fact *= n
        term = PairedBlockOperator.zero(lattice, nu, rem.r1.ell_max)
        for i in range(n):
            term = term + powers[i].compose(g_right[n - 1 - i])
        term = term * (1.0 / fact)
        series = series + term
        if term.decay_norm(0.0) < 1e-18:
            break
    new_rem = phi_inv_minus.compose(r_diag_low) + phi.inverse.compose(
        rem_high + series + rem.compose(phi_minus)
    )
    new_state = KamState(
        step=state.step + 1,
        d_blocks=new_blocks,
        remainder=new_rem,
        accumulated=state.accumulated.then(phi),
        history=list(state.history),
        step_maps=list(state.step_maps) + ([phi] if state.keep_maps else []),
        keep_maps=state.keep_maps,
    )
    new_state.history.append(
        {
            "k": state.step,
            "N_k": n_cut,
            "r_low": rem.decay_norm(config.s_low),
            "r_high": rem.decay_norm(config.s_high),
            "psi_norm": psi.decay_norm(config.s_low),
            "tail_vanished": not (rem_high.r1.blocks or rem_high.r2.blocks),
        }
    )
    return new_state


@dataclass
class KamResult:
    converged: bool
    state: KamState
    history: list
    residual: float
    conjugation_residual: float
    verdict: str
    certificate: dict = None


def kam_run(d_blocks, remainder, omega, lattice, config,
            compute_conjugation_residual=True, keep_maps=False):
    """Iterate until |R_k|_{s_low} < target, stall, resonance or max_steps.

    Returns a KamResult; a ResonanceError inside the iteration yields a
    partial result with the certificate recorded, matching the convention
    that such omega simply leave the accepted set.
    """
    omega = np.asarray(omega, dtype=float)
    ok, _ = diophantine_check(omega, config.gamma, config.tau,
                              remainder.r1.ell_max)
    nu = remainder.r1.nu
    state = KamState(
        step=0,
        d_blocks={k: np.asarray(v, complex) for k, v in d_blocks.items()},
        remainder=remainder,
        accumulated=ExpMap.identity(lattice, nu, remainder.r1.ell_max),
        keep_maps=keep_maps,
    )
    if not ok:
        return KamResult(False, state, [], remainder.decay_norm(config.s_low),
                         math.inf, "diophantine-failure",
                         {"kind": "DC", "gamma": config.gamma})
    residuals = [remainder.decay_norm(config.s_low)]
    verdict = "max-steps"
    cert = None
    while state.step < config.max_steps:
        if residuals[-1] < config.target_residual:
            verdict = "converged"
            break
        try:
            state = kam_step(state, lattice, config, omega)
        except ResonanceError as err:
            verdict = "resonance"
            cert = err.certificate()
            break
        residuals.append(state.remainder.decay_norm(config.s_low))
        state.history[-1]["r_low_next"] = residuals[-1]
        if len(residuals) > config.stall_window:
            window = residuals[-config.stall_window - 1:]
            ratios = [b / a for a, b in zip(window, window[1:]) if a > 0]
            if ratios and all(r > config.stall_ratio for r in ratios):
                raise NonConvergenceError(
                    f"residual stalled near {residuals[-1]:.3e} "
                    f"(ratios {[f'{r:.2f}' for r in ratios]})"
                )
    else:
        if residuals[-1] < config.target_residual:
            verdict = "converged"
    conj_res = math.inf
    if verdict == "converged" and compute_conjugation_residual:
        conj_res = conjugation_residual(
            d_blocks, remainder, state, omega, lattice, config
        )
    return KamResult(
        converged=(verdict == "converged"),
        state=state,
        history=state.history,
        residual=residuals[-1],
        conjugation_residual=conj_res,
        verdict=verdict,
        certificate=cert,
    )


def _diag_operator(d_blocks, lattice, nu, ell_max):
    """Paired operator of the diagonal: top-left = -i D^(1)."""
    op = BlockOperator(lattice, nu, ell_max)
    zero = (0,) * nu
    for a_sq, mat in sorted(d_blocks.items()):
        op.set_block(zero, a_sq, a_sq, -1j * np.asarray(mat))
    return PairedBlockOperator(op, BlockOperator(lattice, nu, ell_max))


def conjugation_residual(d0_blocks, r0, state, omega, lattice, config):
    """|Phi^{-1}(L0 Phi - omega.dphi Phi) - D_inf|_{s_low} for the full map."""
    nu = r0.r1.nu
    ell_max = r0.r1.ell_max
    l0 = _diag_operator(d0_blocks, lattice, nu, ell_max) + r0
    pushed = push_forward(l0, state.accumulated, omega)
    dinf = _diag_operator(state.d_blocks, lattice, nu, ell_max)
    return (pushed - dinf).decay_norm(config.s_low)


def final_eigenvalues(state, lattice, m, mu0=None):
    """Sorted eigenvalues per cluster with the correction split lambda = m alpha + r.

    Returns dict alpha_sq -> dict(eigenvalues, corrections, alpha).
    """
    out = {}
    for a_sq in sorted(state.d_blocks):
        lam = np.linalg.eigvalsh(state.d_blocks[a_sq])
        alpha = lattice.alpha(a_sq)
        out[a_sq] = {
            "alpha": alpha,
            "eigenvalues": lam,
            "corrections": lam - m * alpha,
            "n_alpha": lattice.cluster(a_sq).n_alpha,
        }
    return out
