"""Resonant-set classification of sampled frequencies and the measure proxy.

A frequency is accepted when every eigenvalue-difference condition

    |omega.ell + lambda_k - lambda_j| >= 2 gamma / (<ell>^tau alpha^dd beta^dd)

(excluding (0, alpha, alpha)) and every eigenvalue-sum condition

    |omega.ell + lambda_k + lambda_j| >= 2 gamma (alpha + beta) / <ell>^tau

holds for every ell in the box |ell|_inf <= ell_max (ties pass).  The scan
visits the box rows up to ell = 0 only: the difference condition at -ell for
(alpha, beta) is the one at ell for (beta, alpha) bit for bit, since
fl(-x) = -fl(x), the (beta, alpha) combinations are the (alpha, beta) ones
negated, and thresholds and pruning see ell only through |ell|; the sum
condition at -ell is checked against the sums negated and reversed.  The
window kernel ``_hull_hits`` searches every combination's centre, sorted
once per ``EigenData``, in each row's sorted omega.ell; the KAM Melnikov scan
shares it and the gap kernel ``_gap``.  Lebesgue measure is approximated by the sample fraction on a
declared grid, the numerical counterpart of the analytic Fubini argument.

Note alpha + beta >= 2 on the spectrum, so the bracketed and unbracketed
forms of the sum threshold coincide; and the difference-certificates at
(ell, alpha, alpha) with k = j subsume the Diophantine condition
|omega.ell| >= gamma/|ell|^tau up to the scan box, since
2 gamma / <ell>^tau >= gamma / |ell|^tau.  Verdicts are floating point, not
interval proofs.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .spectrum import ell_table

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

    @cached_property
    def scan_table(self):
        """``_scan_box``'s (combos, centres, cond), built once: conditions
        3i, 3i + 1, 3i + 2 of cluster pair i hold its sorted differences,
        sums and negated sums reversed."""
        combos = []
        for ca in self.lattice.clusters:
            for cb in self.lattice.clusters:
                la, lb = self.tables[ca.alpha_sq], self.tables[cb.alpha_sq]
                add = sorted_combos(la, lb, "+")
                combos += [sorted_combos(la, lb, "-"), add, -add[::-1]]
        return (combos, *_centres(combos))

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
        return {"omega": [float(x) for x in self.omega], "accepted": self.accepted,
                "certificates": self.certificates}


def _combo_grid(la, lb, sign):
    """The (k, j) grid of la[k] - lb[j] (sign '-') or la[k] + lb[j] ('+')."""
    return la[:, None] - lb[None, :] if sign == "-" else la[:, None] + lb[None, :]


def sorted_combos(la, lb, sign):
    """The combinations of ``_combo_grid``, sorted."""
    return np.sort(_combo_grid(la, lb, sign).ravel())


def _gap(x, combos):
    """min_d |x + d| over the sorted combos, from the two neighbours of -x:
    equal to the dense minimum bit for bit since fl(x + d) is monotone in d."""
    i = np.searchsorted(combos, -x)
    return np.minimum(np.abs(x + combos[np.maximum(i - 1, 0)]),
                      np.abs(x + combos[np.minimum(i, combos.size - 1)]))


def _centres(combos):
    """Every combination's centre -d, ascending, and its condition c
    (``combos[c]`` holds condition c's combinations)."""
    centres = -np.concatenate(combos)
    order = np.argsort(centres, kind="stable")
    return centres[order], np.repeat(np.arange(len(combos)),
                                     [d.size for d in combos])[order]


def _padded_sort(wl):
    """wl sorted, between a -inf and a +inf sentinel."""
    return np.concatenate(([-np.inf], np.sort(wl), [np.inf]))


def _hull_hits(wl, xs, centres, cond, thr_max):
    """The window kernel: ``wl`` holds omega.ell, ``xs`` its ``_padded_sort``,
    ``centres`` and ``cond`` come from ``_centres``, ``thr_max`` is each
    centre's largest threshold.  The window around -d has half-width
    2 thr_max + 1e-15 |d| (the rounding of x + d and of its ends); it holds
    -d, or is empty if pruned (thr_max = -inf), so it holds a value iff the
    value just above -d is <= its upper end or the one just below is >= its
    lower end: one search of the ascending centres, and window ends searched
    only for the hits.  Yields (c, s), c ascending, per condition with a
    value in a window, s the ascending indices of wl inside the hull of its
    windows; the extra ones are checked exactly and pass."""
    reach = 2.0 * thr_max + 1e-15 * np.abs(centres)
    i = np.searchsorted(xs, centres)
    hit = np.flatnonzero((xs[i] <= centres + reach)
                         | (xs[i - 1] >= centres - reach))
    if not hit.size:
        return
    hit = hit[np.argsort(cond[hit], kind="stable")]
    first = np.flatnonzero(np.r_[True, np.diff(cond[hit]) != 0])
    lo = np.searchsorted(xs, centres[hit] - reach[hit])
    hi = np.searchsorted(xs, centres[hit] + reach[hit], side="right")
    for c, x0, x1 in zip(cond[hit[first]].tolist(),
                         xs[np.minimum.reduceat(lo, first)],
                         xs[np.maximum.reduceat(hi, first) - 1]):
        yield c, np.flatnonzero((wl >= x0) & (wl <= x1))


def _scan_box(samples, eigen, gammas, tau, dd, ell_max, prune=True):
    """Classifier failures over the box |ell|_inf <= ell_max from its rows
    p <= center: yields (p, c, thr, g, s), p ascending, then c; sample s
    fails at gammas[g] condition c = 3 i + k of cluster pair i (k = 0, 1:
    difference, sum at ell; k = 2: sum at -ell, none at ell = 0), thr[g]
    its thresholds.  The sorted centres come from ``eigen.scan_table``; the
    windows' thresholds are one table over the distinct |ell| at the largest
    gamma, since every threshold and every pruning keep rises with gamma, and
    a hit forms only the per-gamma thresholds of the kind it checks.

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
    combos, centres, cond = eigen.scan_table
    g2 = 2.0 * np.asarray(gammas, dtype=float)
    box, norms = ell_table(samples.shape[1], ell_max)
    uniq, which = np.unique(norms[:len(box) // 2 + 1], return_inverse=True)
    powers = np.array([max(1.0, x) ** tau for x in uniq.tolist()])

    def thresholds(g2, ell_norm, bracket_tau, i, k):
        """Difference (k = 0) or sum (k = 1) thresholds of the pairs i,
        -inf where pruned; bracket_tau = max(1, |ell|)^tau."""
        if k == 0:
            keep = ~(same[i] & (ell_norm == 0.0)) & ((not prune) | (
                m * np.abs(a[i] - b[i]) <= omega_max * ell_norm + g2 + 2.0 * r_max))
            return np.where(keep, g2 / (bracket_tau * ab_dd[i]), -np.inf)
        keep = (not prune) | ((m - g2 / bracket_tau) * (a[i] + b[i])
                              <= omega_max * ell_norm + 2.0 * r_max)
        return np.where(keep, g2 * (a[i] + b[i]) / bracket_tau, -np.inf)

    thr_max = np.stack([thresholds(g2.max(), uniq[:, None], powers[:, None],
                                   slice(None), k) for k in (0, 1, 1)], axis=2)
    thr_max[0, :, 2] = -np.inf  # uniq[0] = 0: -ell = ell adds no condition
    thr_max = thr_max.reshape(len(uniq), -1)
    for p, u in enumerate(which.tolist()):
        wl = samples @ box[p].astype(float)
        for c, s in _hull_hits(wl, _padded_sort(wl), centres, cond,
                               thr_max[u][cond]):
            thr = thresholds(g2, uniq[u], powers[u], c // 3, min(c % 3, 1))
            g, q = np.nonzero(~(_gap(wl[s], combos[c]) >= thr[:, None]))
            if g.size:
                yield p, c, thr, g, s[q]


def classify_omega(omega, eigen, gamma, tau, dd, ell_max, prune=True,
                   first_only=True):
    """Verdict for one frequency (nu,), or a list, one per row of an (m, nu)
    array, from one scan pruned with the rows' largest |omega|.  Certificates
    carry the failing inequality, in scan order (box row, cluster pair, 'R'
    before 'Q'), each at the smallest entry (k, j) of its table
    |omega.ell + (lambda_k -+ lambda_j)| evaluated from the row alone; with
    ``first_only`` a row keeps only its first.  The folded scan stops early
    only once every row fails at a scanned row, before all still to come."""
    omega = np.asarray(omega, dtype=float)
    rows = np.atleast_2d(omega)
    box = ell_table(rows.shape[1], ell_max)[0]
    clusters, last = eigen.lattice.clusters, len(box) - 1
    n, found = len(clusters), [[] for _ in rows]
    scanned = np.zeros(len(rows), dtype=bool)  # rows failing at a scanned row
    for p, c, thr, _, hits in _scan_box(rows, eigen, [gamma], tau, dd,
                                        ell_max, prune):
        i, k = divmod(c, 3)
        keys = [(p, i, k)] if k < 2 else [(last - p, i, 1)]
        if k == 0 and 2 * p != last:  # the difference at -ell, pair swapped
            keys.append((last - p, i % n * n + i // n, 0))
        for s in hits:
            found[s] += [key + (float(thr[0]),) for key in keys]
        scanned[hits] |= k < 2
        if first_only and scanned.all():
            break
    certs = [[] for _ in rows]
    for s, keys in enumerate(found):
        for q, i, k, thr in sorted(keys)[:1 if first_only else None]:
            ca, cb = clusters[i // n], clusters[i % n]
            # the one-row product: a batched one can round differently
            wl = (rows[s:s + 1] @ box[q].astype(float))[0]
            gap = np.abs(wl + _combo_grid(eigen.tables[ca.alpha_sq],
                                          eigen.tables[cb.alpha_sq], "-+"[k]))
            kmin, jmin = np.unravel_index(np.argmin(gap), gap.shape)
            certs[s].append({
                "kind": "RQ"[k], "ell": box[q].tolist(), "alpha_sq": ca.alpha_sq,
                "beta_sq": cb.alpha_sq, "k": int(kmin), "j": int(jmin),
                "value": float(gap[kmin, jmin]), "threshold": thr})
    reports = [ResonanceReport(w, not c, c) for w, c in zip(rows, certs)]
    return reports if omega.ndim == 2 else reports[0]


def _grid_masks(samples, eigen, gammas, tau, dd, ell_max):
    """Acceptance mask per gamma; each gap is computed once for all gammas."""
    accepted = np.ones((len(gammas), samples.shape[0]), dtype=bool)
    for *_, g, s in _scan_box(samples, eigen, gammas, tau, dd, ell_max):
        accepted[g, s] = False
    return accepted


def classify_grid(samples, eigen, gamma, tau, dd, ell_max):
    """Boolean acceptance mask of a whole sample array: classify_omega's
    verdicts (tested), with pruning bounded by the largest sample norm."""
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
        fit = {"degenerate": False, "slope": float(coeffs[0]),
               "intercept": float(coeffs[1]),
               "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else math.nan}
    rows = [
        {"gamma": float(gamma), "n_samples": int(samples.shape[0]),
         "n_excluded": int(np.sum(~mask)), "fraction": float(frac),
         "fit_slope": fit["slope"], "fit_r2": fit["r2"]}
        for gamma, mask, frac in zip(gamma_list, masks, fractions)
    ]
    return rows, fit
