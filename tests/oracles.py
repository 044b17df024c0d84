"""Reference implementations kept verbatim as oracles; none of it is used by
the package.

- The dense per-(ell, cluster pair) small-divisor scans that
  ``resonance.divisor_check`` replaced: each forms the full table
  |omega.ell + lambda -+ mu| for each cluster pair and takes its minimum.
- The dict-based RK4 integrator that ``dynamics.evolve_original`` replaced: it
  rebuilds ``dict j -> complex`` of the forcing at every stage.
"""

import itertools
import math

import numpy as np

from wavekam.errors import ParameterError, ResonanceError
from wavekam.kam import SylvesterOperator
from wavekam.resonance import ResonanceReport


# ---------------------------------------------------------------------------
# KAM Melnikov conditions (formerly kam._melnikov_scan, kam.check_melnikov,
# SylvesterOperator.inverse_norm)
# ---------------------------------------------------------------------------


def inverse_norm(syl):
    """||A^{-1}||_Op = 1 / min |omega.ell + lambda -+ mu|."""
    dmin = float(np.min(np.abs(syl.denominators())))
    return math.inf if dmin == 0.0 else 1.0 / dmin


def check_melnikov(state, lattice, config, omega, ell, a_sq, b_sq, kind):
    """Verdict for one (ell, alpha, beta): inverse norm against the threshold.

    Strict inequality required; kind '-' skips (0, alpha, alpha).
    """
    ell = tuple(int(x) for x in ell)
    if kind == "-" and a_sq == b_sq and not any(ell):
        return True, math.inf
    syl = SylvesterOperator.from_state(state, lattice, ell, a_sq, b_sq, kind, omega)
    inv = inverse_norm(syl)
    bracket_ell = max(1.0, float(np.linalg.norm(ell)))
    alpha = lattice.alpha(a_sq)
    beta = lattice.alpha(b_sq)
    if kind == "-":
        thr = (alpha * beta) ** config.dd * bracket_ell**config.tau / config.gamma
    else:
        thr = bracket_ell**config.tau / (config.gamma * (alpha + beta))
    margin = thr - inv
    return inv < thr, margin


def melnikov_scan(state, lattice, config, omega, n_cut, nu):
    """All verdicts for <ell, alpha, beta> <= N, vectorized per cluster pair."""
    omega = np.asarray(omega, float)
    ell_range = range(-min(n_cut, 10**6), min(n_cut, 10**6) + 1)
    ells = [
        ell
        for ell in itertools.product(ell_range, repeat=nu)
        if np.linalg.norm(ell) <= n_cut
    ]
    if not ells:
        return True, None
    ell_arr = np.array(ells, dtype=float)
    omega_ell = ell_arr @ omega
    bracket = np.maximum(1.0, np.linalg.norm(ell_arr, axis=1))
    eigs = state.eig_tables()
    eigs_conj = {}
    for a_sq, mat in state.d_blocks.items():
        perm = lattice.cluster(a_sq).neg_perm
        eigs_conj[a_sq] = np.linalg.eigvalsh(np.conj(mat[np.ix_(perm, perm)]))
    for ca in lattice.clusters:
        if ca.alpha > n_cut:
            continue
        for cb in lattice.clusters:
            if cb.alpha > n_cut:
                continue
            a_sq, b_sq = ca.alpha_sq, cb.alpha_sq
            diffs = (eigs[a_sq][:, None] - eigs[b_sq][None, :]).ravel()
            sums = (eigs[a_sq][:, None] + eigs_conj[b_sq][None, :]).ravel()
            dmin_minus = np.min(np.abs(omega_ell[:, None] + diffs[None, :]), axis=1)
            dmin_plus = np.min(np.abs(omega_ell[:, None] + sums[None, :]), axis=1)
            thr_minus = config.gamma / (
                (ca.alpha * cb.alpha) ** config.dd * bracket**config.tau
            )
            thr_plus = config.gamma * (ca.alpha + cb.alpha) / bracket**config.tau
            ok_minus = dmin_minus > thr_minus
            if a_sq == b_sq:
                zero_idx = np.nonzero(~ell_arr.any(axis=1))[0]
                ok_minus[zero_idx] = True
            ok_plus = dmin_plus > thr_plus
            if not np.all(ok_minus):
                k = int(np.nonzero(~ok_minus)[0][0])
                return False, ResonanceError(
                    ells[k], a_sq, b_sq, "-", float(dmin_minus[k]),
                    float(thr_minus[k]),
                )
            if not np.all(ok_plus):
                k = int(np.nonzero(~ok_plus)[0][0])
                return False, ResonanceError(
                    ells[k], a_sq, b_sq, "+", float(dmin_plus[k]),
                    float(thr_plus[k]),
                )
    return True, None


# ---------------------------------------------------------------------------
# resonant-set classifier (formerly resonance.classify_omega with its unused
# slack argument, recheck_certificate and classify_grid)
# ---------------------------------------------------------------------------


def _ell_list(nu, ell_max):
    return [
        ell
        for ell in itertools.product(range(-ell_max, ell_max + 1), repeat=nu)
    ]


def classify_omega(omega, eigen, gamma, tau, dd, ell_max, prune=True,
                   first_only=True, slack=0.0):
    """Verdict for one frequency; certificates carry the failing inequality.

    Pruning (validated against the full scan in tests): a difference
    condition can only fail when m|alpha-beta| <= |omega||ell| + 2 gamma
    + 2 r_max, and a sum condition only when (m - small)(alpha+beta) <=
    |omega||ell| + 2 r_max; the (0, alpha, beta != alpha) and (0, +)-sets are
    empty for small gamma, which the same bounds detect.
    """
    omega = np.asarray(omega, dtype=float)
    nu = omega.size
    lat = eigen.lattice
    m = eigen.m
    r_max = eigen.correction_bound()
    omega_norm = float(np.linalg.norm(omega))
    certs = []
    for ell in _ell_list(nu, ell_max):
        wl = float(np.dot(omega, ell))
        ell_norm = float(np.linalg.norm(ell))
        bracket = max(1.0, ell_norm)
        budget = omega_norm * ell_norm + 2.0 * gamma + 2.0 * r_max
        for ca in lat.clusters:
            for cb in lat.clusters:
                a, b = ca.alpha, cb.alpha
                # difference condition
                skip_diag = ca.alpha_sq == cb.alpha_sq and not any(ell)
                if not skip_diag and (not prune or m * abs(a - b) <= budget):
                    thr = 2.0 * gamma / (bracket**tau * (a * b) ** dd)
                    la = eigen.tables[ca.alpha_sq]
                    lb = eigen.tables[cb.alpha_sq]
                    gap = np.abs(wl + la[:, None] - lb[None, :])
                    kmin = np.unravel_index(np.argmin(gap), gap.shape)
                    if gap[kmin] < thr - slack:
                        certs.append(_certificate(
                            "R", ell, ca, cb, kmin, float(gap[kmin]), thr
                        ))
                        if first_only:
                            return ResonanceReport(omega, False, certs)
                # sum condition
                margin_m = m - 2.0 * gamma / bracket**tau
                if not prune or margin_m * (a + b) <= omega_norm * ell_norm + 2.0 * r_max:
                    thr = 2.0 * gamma * (a + b) / bracket**tau
                    la = eigen.tables[ca.alpha_sq]
                    lb = eigen.tables[cb.alpha_sq]
                    gap = np.abs(wl + la[:, None] + lb[None, :])
                    kmin = np.unravel_index(np.argmin(gap), gap.shape)
                    if gap[kmin] < thr - slack:
                        certs.append(_certificate(
                            "Q", ell, ca, cb, kmin, float(gap[kmin]), thr
                        ))
                        if first_only:
                            return ResonanceReport(omega, False, certs)
    return ResonanceReport(omega, not certs, certs)


def _certificate(kind, ell, ca, cb, kmin, value, thr):
    return {
        "kind": kind,
        "ell": list(ell),
        "alpha_sq": ca.alpha_sq,
        "beta_sq": cb.alpha_sq,
        "k": int(kmin[0]),
        "j": int(kmin[1]),
        "value": value,
        "threshold": thr,
    }


def recheck_certificate(omega, eigen, cert):
    """Re-evaluate the certificate inequality (reproducibility contract)."""
    omega = np.asarray(omega, dtype=float)
    wl = float(np.dot(omega, cert["ell"]))
    la = eigen.tables[cert["alpha_sq"]][cert["k"]]
    lb = eigen.tables[cert["beta_sq"]][cert["j"]]
    value = abs(wl + la - lb) if cert["kind"] == "R" else abs(wl + la + lb)
    return value < cert["threshold"], value


def classify_grid(samples, eigen, gamma, tau, dd, ell_max):
    """Vectorized verdicts for a whole sample array (pre-screen scale).

    Returns a boolean acceptance mask.  Scans each (ell, alpha, beta) against
    all samples at once; identical verdict family as classify_omega (tested).
    """
    samples = np.asarray(samples, dtype=float)
    lat = eigen.lattice
    m = eigen.m
    r_max = eigen.correction_bound()
    omega_max = float(np.max(np.linalg.norm(samples, axis=1)))
    accepted = np.ones(samples.shape[0], dtype=bool)
    nu = samples.shape[1]
    clusters = lat.clusters
    for ell in _ell_list(nu, ell_max):
        ell_norm = float(np.linalg.norm(ell))
        bracket = max(1.0, ell_norm)
        wl = samples @ np.asarray(ell, dtype=float)
        budget = omega_max * ell_norm + 2.0 * gamma + 2.0 * r_max
        for ca in clusters:
            for cb in clusters:
                a, b = ca.alpha, cb.alpha
                la = eigen.tables[ca.alpha_sq]
                lb = eigen.tables[cb.alpha_sq]
                skip_diag = ca.alpha_sq == cb.alpha_sq and not any(ell)
                if not skip_diag and m * abs(a - b) <= budget:
                    thr = 2.0 * gamma / (bracket**tau * (a * b) ** dd)
                    diffs = (la[:, None] - lb[None, :]).ravel()
                    gap = np.min(
                        np.abs(wl[:, None] + diffs[None, :]), axis=1
                    )
                    accepted &= gap >= thr
                margin_m = m - 2.0 * gamma / bracket**tau
                if margin_m * (a + b) <= omega_max * ell_norm + 2.0 * r_max:
                    thr = 2.0 * gamma * (a + b) / bracket**tau
                    sums = (la[:, None] + lb[None, :]).ravel()
                    gap = np.min(
                        np.abs(wl[:, None] + sums[None, :]), axis=1
                    )
                    accepted &= gap >= thr
    return accepted



# ---------------------------------------------------------------------------
# RK4 on coefficient dicts (formerly dynamics.evolve_original and
# dynamics._rank_apply_x)
# ---------------------------------------------------------------------------


def _rank_apply_x(rank_pairs, phi, coeffs):
    """R(phi)[v] on x-coefficients: sum_k b<c, v> + c<b, v>."""
    out = {}
    for b, c in rank_pairs:
        bv = b.x_coeffs_at_phi(phi)
        cv = c.x_coeffs_at_phi(phi)
        ip_c = sum(cv.get(tuple(-x for x in j), 0j) * u for j, u in coeffs.items())
        ip_b = sum(bv.get(tuple(-x for x in j), 0j) * u for j, u in coeffs.items())
        for j, val in bv.items():
            out[j] = out.get(j, 0j) + val * ip_c
        for j, val in cv.items():
            out[j] = out.get(j, 0j) + val * ip_b
    return out


def evolve_original_dicts(problem, omega, v0, psi0, horizon, dt, n_samples=33,
                          keep_states=True):
    """RK4 trajectory of the first-order system on the Fourier truncation.

    v0, psi0: dicts j -> complex (zero-average x-data).  dt must resolve the
    forcing and the largest retained spatial frequency: dt <= 0.5/(|omega| +
    j_max).
    """
    omega = np.asarray(omega, dtype=float)
    cfl = 0.5 / (float(np.linalg.norm(omega)) + problem.j_max)
    if dt > cfl:
        raise ParameterError(f"dt = {dt:.3e} violates the step bound {cfl:.3e}")
    modes = sorted(set(v0) | set(psi0))
    lat = problem.lattice
    for j in modes:
        if tuple(j) not in lat.cluster_of_point:
            raise ParameterError(f"initial mode {j} outside the lattice")
    n = len(modes)
    idx = {j: i for i, j in enumerate(modes)}
    nsq = np.array([float(sum(x * x for x in j)) for j in modes])
    y = np.zeros(2 * n, dtype=complex)
    for j, v in v0.items():
        y[idx[j]] = v
    for j, v in psi0.items():
        y[n + idx[j]] = v
    eps = problem.epsilon
    a_fn = problem.a

    def rhs(t, state):
        phi = omega * t
        vpart = state[:n]
        ppart = state[n:]
        a_val = float(a_fn.eval_at(phi.reshape(1, -1)).real[0]) if eps else 0.0
        acc = -(1.0 + eps * a_val) * nsq * vpart
        if eps and problem.rank_pairs:
            coeffs = {j: vpart[idx[j]] for j in modes}
            extra = _rank_apply_x(problem.rank_pairs, phi, coeffs)
            for j, val in extra.items():
                if j in idx:
                    acc[idx[j]] += eps * val
        return np.concatenate([ppart, acc])

    n_steps = int(math.ceil(horizon / dt))
    sample_every = max(1, n_steps // max(1, n_samples - 1))
    times, nv, npsi, states = [], [], [], []
    t = 0.0

    def record(t, state):
        times.append(t)
        vmap = {j: state[idx[j]] for j in modes}
        pmap = {j: state[n + idx[j]] for j in modes}
        nv.append(vmap)
        npsi.append(pmap)
        if keep_states:
            states.append(state.copy())

    record(t, y)
    for k in range(n_steps):
        h = min(dt, horizon - t)
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            record(t, y)
    return times, nv, npsi, states
