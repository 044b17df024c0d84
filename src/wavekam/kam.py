"""Quadratic iteration driving the paired remainder to zero.

Each step solves the homological equation blockwise through the Sylvester
operators

    A^-(ell,a,b) X = omega.ell X + D_a X - X D_b,
    A^+(ell,a,b) X = omega.ell X + D_a X + X conj(D_b),

by Hermitian eigendecomposition of the current diagonal blocks: in the joint
eigenbasis the solve is a division by omega.ell + lambda -+ mu, and the
inverse norm is exactly 1/min|denominator|.  One ``eigh`` per cluster, sign
and step (``KamState.eig``) serves the scan and one batched solve per
cluster-pair stack; dense Kronecker and per-block solves are test oracles.

Melnikov verdicts (one pass of the classifier's window kernel) bound those
denominators by gamma / (alpha^dd beta^dd <ell>^tau) (differences, excluding
(0, a, a)) and gamma (alpha+beta) / <ell>^tau (sums) on the ball
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
    operator_exponential,  # unused here; perfbench's self-check wraps this binding
    smoothing_projector,
)
from .errors import (NonConvergenceError, ParameterError, ResonanceError,
                     ResourceLimitError)
from .hamiltonian import ExpMap, push_forward
from .resonance import (_centres, _combo_grid, _gap, _hull_hits, _padded_sort,
                        sorted_combos)
from .series import truncated_series
from .spectrum import default_s0, diophantine_check, ell_box, ell_table

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
    """Iteration constants; defaults follow the measure-estimate choices.
    The cutoff growth chi, the stall test and the norm indices are fixed."""

    nu: int
    d: int
    gamma: float
    tau: float = None
    dd: float = None
    n0: int = 4
    max_steps: int = 12
    target_residual: float = 1e-12
    chi = 1.5
    stall_ratio = 0.9
    stall_window = 3

    def __post_init__(self):
        if self.tau is None:
            self.tau = self.nu + 4 * self.d
        if self.dd is None:
            self.dd = 2.0 * self.d
        self.s_low = 2.0 * default_s0(self.nu, self.d)
        self.s_high = self.s_low + 2.0

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
    _eigh: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def eig(self, lattice, a_sq, sign="-"):
        """eigh of D_a ('-') or of conj(P D_a P) ('+', P: j -> -j), once."""
        if (a_sq, sign) not in self._eigh:
            mat = self.d_blocks[a_sq]
            if sign == "+":
                perm = lattice.cluster(a_sq).neg_perm
                mat = np.conj(mat[np.ix_(perm, perm)])
            self._eigh[(a_sq, sign)] = np.linalg.eigh(np.asarray(mat, complex))
        return self._eigh[(a_sq, sign)]

    def hermitian_residual(self):
        return max(
            float(np.max(np.abs(m - m.conj().T)))
            for m in self.d_blocks.values()
        )


class SylvesterOperator:
    """One blockwise homological operator A^sign(ell, alpha, beta)."""

    __slots__ = ("ell", "a_sq", "b_sq", "sign", "left", "right", "omega_ell")

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

    def eig(self):
        return (*np.linalg.eigh(self.left), *np.linalg.eigh(self.right))


def _solve_stack(ells, wl, a_sq, b_sq, sign, left, right, rhs):
    """A^sign X_i = -i rhs_i on a (k, n_a, n_b) stack at ells, wl = omega.ell,
    (lambda, U) = left, right: X_i = U_a((U_a^H (-i rhs_i) U_b) / den_i)U_b^H,
    den_i = wl[i] + lambda_a -+ lambda_b.  Returns (X, min |den_i|); a zero
    one raises ResonanceError at its block."""
    (la, ua), (lb, ub) = left, right
    den = wl[:, None, None] + _combo_grid(la, lb, sign)
    dmin = np.min(np.abs(den), axis=(1, 2))
    if not dmin.all():
        raise ResonanceError(ells[np.argmin(dmin)], a_sq, b_sq, sign, 0.0)
    y = ua.conj().T @ (-1j * rhs) @ ub
    return ua @ (y / den) @ ub.conj().T, dmin


def sylvester_solve(syl, rhs):
    """(X, inverse_norm) of A^sign X = -i rhs: ``_solve_stack`` on one block."""
    la, ua, lb, ub = syl.eig()
    x, dmin = _solve_stack([syl.ell], np.array([syl.omega_ell]), syl.a_sq,
                           syl.b_sq, syl.sign, (la, ua), (lb, ub),
                           np.asarray(rhs, dtype=complex)[None])
    return x[0], 1.0 / float(dmin[0])


def _melnikov_scan(state, lattice, config, omega, n_cut, nu):
    """First failing Melnikov condition for |ell| <= N and alpha, beta <= N.

    Cluster pairs outer, per pair the difference condition then the sum
    condition on the cached eigenvalues (conj-permuted for the sum): one
    ``_hull_hits`` pass over all their sorted centres yields each condition's
    candidates in lexicographic order, its reach the threshold at the
    smallest <ell>^tau (its largest, rounding being monotone); ties fail.
    The ell box |ell|_inf <= N is enumerated only up to MAX_SCAN_ELLS points.
    """
    n_box = (2 * n_cut + 1) ** nu
    if n_box > MAX_SCAN_ELLS:
        raise ResourceLimitError(n_cut, nu, n_box, MAX_SCAN_ELLS)
    ells = ell_box(nu, n_cut)
    ells = ells[np.sum(ells * ells, axis=1) <= n_cut * n_cut]
    zero = len(ells) // 2  # the ball is symmetric, in lexicographic order
    ell_arr = ells.astype(float)
    omega_ell = ell_arr @ np.asarray(omega, float)
    bracket_tau = np.maximum(1.0, np.linalg.norm(ell_arr, axis=1)) ** config.tau

    def threshold(ca, cb, sign, bt):
        if sign == "-":
            return config.gamma / ((ca.alpha * cb.alpha) ** config.dd * bt)
        return config.gamma * (ca.alpha + cb.alpha) / bt

    inside = [c for c in lattice.clusters if c.alpha <= n_cut]
    conds = [(ca, cb, sign) for ca, cb in itertools.product(inside, inside)
             for sign in "-+"]
    combos = [sorted_combos(state.eig(lattice, ca.alpha_sq)[0],
                            state.eig(lattice, cb.alpha_sq, sign)[0], sign)
              for ca, cb, sign in conds]
    centres, which = _centres(combos)
    reach = np.array([threshold(*cond, 1.0) for cond in conds])  # <0>^tau = 1
    for c, s in _hull_hits(omega_ell, _padded_sort(omega_ell), centres, which,
                           reach[which]):
        ca, cb, sign = conds[c]
        if sign == "-" and ca is cb:
            s = s[s != zero]  # (0, a, a) is absorbed, not solved
        thr = threshold(ca, cb, sign, bracket_tau[s])
        gap = _gap(omega_ell[s], combos[c])
        bad = np.flatnonzero(~(gap > thr))
        if bad.size:
            p = bad[0]
            return False, ResonanceError(ells[s[p]], ca.alpha_sq, cb.alpha_sq,
                                         sign, gap[p], thr[p])
    return True, None


def assemble_homological_solution(state, lattice, config, omega, n_cut):
    """Psi with -omega.dphi Psi + [D, Psi] + Pi_N R = Pi_N R_diag.

    On the stored top row (r1, r2) the blockwise equations read
    A^-(ell,a,b) psi1 = -i r1_hat(ell),  A^+(ell,a,b) psi2 = -i r2_hat(ell),
    with psi1 zeroed at (0, a, a) where the diagonal is absorbed instead;
    one ``_solve_stack`` call per cluster-pair stack.
    """
    rem = state.remainder
    nu, ell_max = rem.r1.nu, rem.r1.ell_max
    box, norms = ell_table(nu, ell_max)
    omega = np.asarray(omega, dtype=float)
    psi = PairedBlockOperator.zero(lattice, nu, ell_max)
    for part, out, sign in ((rem.r1, psi.r1, "-"), (rem.r2, psi.r2, "+")):
        for (a_sq, b_sq), (idx, mats) in part.stacks.items():
            keep = np.maximum(norms[idx], max(lattice.alpha(a_sq),
                                              lattice.alpha(b_sq))) <= n_cut
            if sign == "-" and a_sq == b_sq:
                keep &= idx != len(box) // 2
            if keep.any():
                ells = box[idx[keep]]
                # one (1, nu) @ (nu,) product per ell rounds as np.dot
                wl = (ells[:, None, :] @ omega)[:, 0]
                x, _ = _solve_stack(ells, wl, a_sq, b_sq, sign,
                                    state.eig(lattice, a_sq),
                                    state.eig(lattice, b_sq, sign), mats[keep])
                out.stacks[(a_sq, b_sq)] = (idx[keep], x)
    return psi


def kam_step(state, lattice, config, omega):
    """One reducibility step; raises ResonanceError when a Melnikov bound fails.

    Conjugating L + R, L = D - omega.dphi, by Phi = exp(Psi) gives the
    diagonal D + Pi_N R_diag and the remainder Pi_{>N} R + (Phi^-1 R Phi - R)
    + sum_{k>=2} ad_Psi^(k-1)(G) / k!, with ad_Psi X = X Psi - Psi X and
    G = Pi_N R_diag - Pi_N R = ad_Psi L (the homological equation).  That
    Lie series is summed to 1e-18 under the tail bound |G| (2|Psi|)^(k-1) / k!;
    none of its terms contains the O(1) diagonal D.  Psi and the terms are
    Hamiltonian, so Psi X = (X Psi)^sigma: a term is (Y - Y^sigma) / k, Y = X Psi.
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
    rem_high = PairedBlockOperator(high, high2)
    g = PairedBlockOperator(diagonal_part(low) - low, low2 * (-1.0))  # Pi_N (R_diag - R)
    # new diagonal: D_+ = D + Pi_N R_diag, i.e. blocks += i r1_hat(0)
    new_blocks = {}
    for a_sq, mat in state.d_blocks.items():
        upd = mat.copy()
        if lattice.alpha(a_sq) <= n_cut:
            upd = upd + 1j * rem.r1.block(zero, a_sq, a_sq)
        new_blocks[a_sq] = upd
    phi = ExpMap.from_generator(psi)
    psi_norm = psi.decay_norm(0.0)

    def lie_term(x, k):
        y = x.compose(psi)
        return (y - y.sigma()) * (1.0 / k)

    lie = truncated_series(
        g, lie_term, 1e-18, 60,
        rate=lambda k: 2.0 * psi_norm / k, bound=g.decay_norm(0.0), k0=1,
        total=PairedBlockOperator.zero(lattice, nu, rem.r1.ell_max), name="KAM Lie series")
    # Phi^-1 R Phi - R = R (Phi - Id) + (Phi^-1 - Id) R Phi: no O(|R|) cancels
    eye = PairedBlockOperator.identity(lattice, nu, rem.r1.ell_max)
    r_phi = rem.compose(phi.forward - eye)
    new_rem = rem_high + lie + r_phi + (phi.inverse - eye).compose(rem + r_phi)
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
            "tail_vanished": not (len(rem_high.r1) or len(rem_high.r2)),
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
    zero = (0,) * nu
    op = BlockOperator(lattice, nu, ell_max, {
        (zero, a_sq, a_sq): -1j * np.asarray(mat) for a_sq, mat in d_blocks.items()})
    return PairedBlockOperator(op, BlockOperator(lattice, nu, ell_max))


def conjugation_residual(d0_blocks, r0, state, omega, lattice, config):
    """|Phi^{-1}(L0 Phi - omega.dphi Phi) - D_inf|_{s_low} for the full map."""
    nu = r0.r1.nu
    ell_max = r0.r1.ell_max
    l0 = _diag_operator(d0_blocks, lattice, nu, ell_max) + r0
    pushed = push_forward(l0, state.accumulated, omega)
    dinf = _diag_operator(state.d_blocks, lattice, nu, ell_max)
    return (pushed - dinf).decay_norm(config.s_low)


def final_eigenvalues(state, lattice, m):
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
