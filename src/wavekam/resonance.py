"""Resonant-set classification of sampled frequencies and the measure proxy.

A frequency is accepted when every eigenvalue-difference condition

    |omega.ell + lambda_k - lambda_j| >= 2 gamma / (<ell>^tau alpha^dd beta^dd)

(excluding (0, alpha, alpha)) and every eigenvalue-sum condition

    |omega.ell + lambda_k + lambda_j| >= 2 gamma (alpha + beta) / <ell>^tau

holds for every ell in the box |ell|_inf <= ell_max (ties pass); the KAM
Melnikov scan shares the window kernel ``_hull_hits`` and the gap kernel
``_gap``.  Lebesgue measure is
approximated by the sample fraction on a declared grid; the analytic Fubini
argument is replaced by this sampling, which is the honest numerical
counterpart.

Note alpha + beta >= 2 on the spectrum, so the bracketed and unbracketed
forms of the sum threshold coincide; and the difference-certificates at
(ell, alpha, alpha) with k = j subsume the Diophantine condition
|omega.ell| >= gamma/|ell|^tau up to the scan box, since
2 gamma / <ell>^tau >= gamma / |ell|^tau.  Verdicts are floating point, not
interval proofs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .spectrum import ell_box

__all__ = [
    "EigenData",
    "ResonanceReport",
    "classify_omega",
    "classify_grid",
    "measure_sweep",
    "sorted_combos",
]


@dataclass
class EigenData:
    """Per-cluster eigenvalue table used by the classifier.

    ``tables[alpha_sq]`` is a 1d array of eigenvalues.  Pre-screening mode
    uses the unperturbed mu_alpha = m alpha + c(alpha) (one value per
    cluster); post-iteration mode uses the final sorted eigenvalue lists.
    """

    lattice: object
    tables: dict
    m: float = 1.0

    @classmethod
    def unperturbed(cls, lattice, m=1.0, c=None):
        tables = {}
        for i, cl in enumerate(lattice.clusters):
            shift = 0.0 if c is None else float(c[i])
            tables[cl.alpha_sq] = np.array([m * cl.alpha + shift])
        return cls(lattice, tables, m)

    @classmethod
    def from_blocks(cls, lattice, d_blocks, m=1.0):
        return cls(
            lattice,
            {a: np.linalg.eigvalsh(mat) for a, mat in d_blocks.items()},
            m,
        )

    def correction_bound(self):
        """max |lambda - m alpha| over the table."""
        return max(float(np.max(np.abs(self.tables[cl.alpha_sq] - self.m * cl.alpha)))
                   for cl in self.lattice.clusters)


@dataclass
class ResonanceReport:
    omega: np.ndarray
    accepted: bool
    certificates: list = field(default_factory=list)

    def to_json(self):
        return {
            "omega": [float(x) for x in self.omega],
            "accepted": self.accepted,
            "certificates": self.certificates,
        }


def _combo_grid(la, lb, sign):
    """The (k, j) grid of la[k] - lb[j] (sign '-') or la[k] + lb[j] ('+')."""
    return la[:, None] - lb[None, :] if sign == "-" else la[:, None] + lb[None, :]


def sorted_combos(la, lb, sign):
    """The combinations of ``_combo_grid``, sorted."""
    return np.sort(_combo_grid(la, lb, sign).ravel())


def _windows(xs, d, thr_max):
    """Index ranges [lo, hi) of the sorted xs that can fail against some d:
    the half-width covers the rounding of x + d and of the window ends."""
    reach = 2.0 * thr_max + 1e-15 * np.abs(d)
    return (np.searchsorted(xs, -d - reach),
            np.searchsorted(xs, -d + reach, side="right"))


def _gap(x, combos):
    """min_d |x + d| over the sorted combos, from the two neighbours of -x:
    equal to the dense minimum bit for bit since fl(x + d) is monotone in d."""
    i = np.searchsorted(combos, -x)
    return np.minimum(np.abs(x + combos[np.maximum(i - 1, 0)]),
                      np.abs(x + combos[np.minimum(i, combos.size - 1)]))


def _hull_hits(wl, xs, every, starts, thr_max):
    """The window kernel: ``wl`` holds omega.ell, ``xs`` its sorted copy,
    ``every`` each condition's sorted combos concatenated (condition c from
    starts[c]) and ``thr_max`` each combo's largest threshold.  Yields (c, s),
    c ascending, for each condition with a value in one of its windows, s the
    ascending indices of wl inside the hull of those windows; the extra ones
    are checked exactly and pass, so no verdict depends on the order of wl."""
    lo, hi = _windows(xs, every, thr_max)
    hit = lo < hi
    lo = np.minimum.reduceat(np.where(hit, lo, xs.size), starts)
    hi = np.maximum.reduceat(np.where(hit, hi, 0), starts)
    for c in np.flatnonzero(lo < hi):
        yield c, np.flatnonzero((wl >= xs[lo[c]]) & (wl <= xs[hi[c] - 1]))


def _scan_box(samples, eigen, gammas, tau, dd, ell_max, prune=True):
    """Classifier failures over the box |ell|_inf <= ell_max, in scan order
    (ell outer, then cluster pairs, 'R' before 'Q'): yields (ell, pair, kind,
    thr, g, s), sample s failing at gammas[g], thr[g] the thresholds.

    Pruning (validated against the full scan in tests): a difference
    condition can only fail when m|alpha-beta| <= |omega||ell| + 2 gamma
    + 2 r_max, and a sum condition only when (m - 2 gamma/<ell>^tau)
    (alpha+beta) <= |omega||ell| + 2 r_max, with |omega| bounded over the
    samples.
    """
    m, r_max = eigen.m, eigen.correction_bound()
    omega_max = float(np.max(np.linalg.norm(samples, axis=1)))
    pairs = [(ca, cb) for ca in eigen.lattice.clusters
             for cb in eigen.lattice.clusters]
    a = np.array([ca.alpha for ca, _ in pairs])
    b = np.array([cb.alpha for _, cb in pairs])
    ab_dd = np.array([(ca.alpha * cb.alpha) ** dd for ca, cb in pairs])
    same = np.array([ca.alpha_sq == cb.alpha_sq for ca, cb in pairs])
    combos = [sorted_combos(eigen.tables[ca.alpha_sq], eigen.tables[cb.alpha_sq],
                            sign) for ca, cb in pairs for sign in "-+"]
    every = np.concatenate(combos)
    sizes = [d.size for d in combos]
    cond = np.repeat(np.arange(len(combos)), sizes)
    starts = np.cumsum(sizes) - sizes
    g2 = 2.0 * np.asarray(gammas, dtype=float)[:, None]
    for ell in ell_box(samples.shape[1], ell_max).tolist():
        ell_norm = float(np.linalg.norm(ell))
        bracket_tau = max(1.0, ell_norm) ** tau
        keep_r = ~(same & (ell_norm == 0.0))
        keep_q = True
        if prune:
            keep_r = keep_r & (m * np.abs(a - b)
                               <= omega_max * ell_norm + g2 + 2.0 * r_max)
            keep_q = (m - g2 / bracket_tau) * (a + b) <= (
                omega_max * ell_norm + 2.0 * r_max)
        thr = np.stack([np.where(keep_r, g2 / (bracket_tau * ab_dd), -np.inf),
                        np.where(keep_q, g2 * (a + b) / bracket_tau, -np.inf)],
                       axis=2).reshape(len(gammas), len(combos))
        wl = samples @ np.asarray(ell, dtype=float)
        for c, s in _hull_hits(wl, np.sort(wl), every, starts,
                               np.max(thr, axis=0)[cond]):
            g, p = np.nonzero(~(_gap(wl[s], combos[c]) >= thr[:, c, None]))
            if g.size:
                yield ell, pairs[c // 2], "RQ"[c % 2], thr[:, c], g, s[p]


def classify_omega(omega, eigen, gamma, tau, dd, ell_max, prune=True,
                   first_only=True):
    """Verdict for one frequency (nu,), or a list, one per row of an (m, nu)
    array, from one scan pruned with the rows' largest |omega|.  Certificates
    carry the failing inequality, in scan order, each at the smallest entry
    (k, j) of its table |omega.ell + lambda_k -+ lambda_j| evaluated from the
    row alone; with ``first_only`` a row keeps only its first."""
    omega = np.asarray(omega, dtype=float)
    rows = np.atleast_2d(omega)
    certs = [[] for _ in rows]
    for ell, (ca, cb), kind, thr, _, hits in _scan_box(
            rows, eigen, [gamma], tau, dd, ell_max, prune):
        la = eigen.tables[ca.alpha_sq][:, None]
        lb = eigen.tables[cb.alpha_sq][None, :]
        for s in hits:
            if first_only and certs[s]:
                continue
            # the one-row product: a batched one can round differently
            wl = (rows[s:s + 1] @ np.asarray(ell, dtype=float))[0]
            gap = np.abs(wl + la - lb) if kind == "R" else np.abs(wl + la + lb)
            k, j = np.unravel_index(np.argmin(gap), gap.shape)
            certs[s].append({
                "kind": kind, "ell": list(ell), "alpha_sq": ca.alpha_sq,
                "beta_sq": cb.alpha_sq, "k": int(k), "j": int(j),
                "value": float(gap[k, j]), "threshold": float(thr[0])})
        if first_only and all(certs):
            break
    reports = [ResonanceReport(w, not c, c) for w, c in zip(rows, certs)]
    return reports if omega.ndim == 2 else reports[0]


def _grid_masks(samples, eigen, gammas, tau, dd, ell_max):
    """Acceptance mask per gamma; each gap is computed once for all gammas."""
    accepted = np.ones((len(gammas), samples.shape[0]), dtype=bool)
    for *_, g, s in _scan_box(samples, eigen, gammas, tau, dd, ell_max):
        accepted[g, s] = False
    return accepted


def classify_grid(samples, eigen, gamma, tau, dd, ell_max):
    """Vectorized verdicts for a whole sample array (pre-screen scale).

    Returns a boolean acceptance mask; identical verdict family as
    classify_omega (tested), with pruning bounded by the largest sample norm.
    """
    samples = np.asarray(samples, dtype=float)
    return _grid_masks(samples, eigen, [gamma], tau, dd, ell_max)[0]


def measure_sweep(samples, eigen, gamma_list, tau, dd, ell_max):
    """Excluded fraction per gamma plus the linear fit of fraction vs gamma.

    The masks equal classify_grid's at each gamma; every gap is computed once
    for the whole list.  Degenerate grids (single sample or zero spread in
    the fractions) are flagged instead of fitted.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ParameterError("samples must be an (n, nu) array")
    masks = _grid_masks(samples, eigen, gamma_list, tau, dd, ell_max)
    fractions = np.mean(~masks, axis=1)
    gammas = np.asarray(gamma_list, dtype=float)
    fit = {"degenerate": True, "slope": math.nan, "intercept": math.nan,
           "r2": math.nan}
    if samples.shape[0] > 1 and len(gammas) >= 2 and np.ptp(fractions) > 0:
        coeffs = np.polyfit(gammas, fractions, 1)
        pred = np.polyval(coeffs, gammas)
        ss_res = float(np.sum((fractions - pred) ** 2))
        ss_tot = float(np.sum((fractions - np.mean(fractions)) ** 2))
        fit = {
            "degenerate": False,
            "slope": float(coeffs[0]),
            "intercept": float(coeffs[1]),
            "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else math.nan,
        }
    rows = [
        {"gamma": float(gamma), "n_samples": int(samples.shape[0]),
         "n_excluded": int(np.sum(~mask)), "fraction": float(frac),
         "fit_slope": fit["slope"], "fit_r2": fit["r2"]}
        for gamma, mask, frac in zip(gamma_list, masks, fractions)
    ]
    return rows, fit
