"""Reference implementations kept verbatim as oracles; none of it is used by
the package.

- The dense per-(ell, cluster pair) small-divisor scans that the window
  kernel replaced: each forms the full table |omega.ell + lambda -+ mu| for
  each cluster pair and takes its minimum.  Their eigenvalue tables are the
  KAM state's cached ``eigh`` eigenvalues, as the scan's are.
- ``divisor_check``, the one-pair window kernel that the KAM Melnikov scan
  called once per cluster pair and sign before all conditions of a step
  went through ``resonance._hull_hits`` in one pass.
- ``_windows`` and ``hull_hits``, the window kernel that binary-searched
  both ends of every combination's window for each omega.ell row, before
  ``resonance._hull_hits`` searched the sorted window centres once per row.
- The per-block homological solve that the stack solve of
  ``kam.assemble_homological_solution`` replaced: one
  ``SylvesterOperator.from_state`` and two ``eigh`` per block.
- The dict-based RK4 integrator that ``dynamics.evolve_original`` replaced: it
  rebuilds ``dict j -> complex`` of the forcing at every stage.
- The stage-by-stage vector RK4 that the per-block step propagators of
  ``dynamics.evolve_original`` replaced: four right-hand sides per step on
  one dense mode vector, the forcing tabulated per block of 64 steps.
- ``evolve_original_blocks``, the step maps of ``dynamics.evolve_original``
  with one forcing table, one ``_rk4_increments`` and one ``_chain`` per
  block of steps, before its tables held up to 256 steps of whole blocks,
  and ``solutions_from_reduced_per_sample``, the conjugation chain's
  solutions with tau and W1 formed per sample time.
- The dict-based frozen-angle evaluators that
  ``PairedBlockOperator.matrix_at_phi`` replaced, for block operators, paired
  block operators, multipliers and the rank terms of the pipeline.
- The dict-based ``compose`` and ``decay_norm`` that the cluster-pair stacks
  of ``blockop`` replaced; they read blocks through ``items()``.
- The paired product as four plain products, two conj operators and two
  sums, before ``compose`` formed it as one fused product per cluster
  triple.
- ``rank_one_blocks`` with one ``AngleFunction.product`` per (j, j') pair,
  before one batched product and a scatter per cluster pair replaced it.
- ``reporting.dump_blocks`` through one row dict per block and
  ``write_json``, before it formed the same text a stack at a time.  Its
  block iterator ``BlockOperator.items``, which nothing else in the
  package read, is ``block_items``.
- The Python double loop of ``spectrum._convolve_full``'s direct branch,
  the one-pair ``_convolve_full`` that the row-batched
  ``spectrum._convolve_rows`` replaced, and ``_convolve_rows`` itself (a
  bincount per chunk of direct rows, a row with over 16384 products by FFT
  with its noise floor cut), before row products went through
  ``blockop._product_rows``.
- The dense flattening of block and paired block operators over the
  (ell, j) basis, formerly their ``to_dense`` methods.
- The per-ell loops that ``spectrum.ell_box`` and ``ell_table`` replaced:
  ``AngleFunction.sample`` and ``from_samples``, ``diophantine_check`` and
  the flat-position decoder of ``blockop``.
- Test-only operators and checks that left ``blockop``: the action of a
  block operator on a space-time function, the explicit finite-rank
  operator, its block conversion and the dense Sobolev action bound.
- The KAM step whose order >= 2 remainder is the telescoped double sum
  Psi^i (Pi_N R_diag - Pi_N R) Psi^j, which the Lie series of ``kam_step``
  replaced.
- The list-of-parts ``FourierMultiplier`` and ``PairedMultiplier`` (one
  ``AngleFunction`` per cluster, one ``AngleFunction.product`` per cluster in
  ``multiplier_compose``) that the (clusters x ell-box) symbol array
  replaced, with ``from_array``/``to_array`` between the two, and the
  test-only ``FourierMultiplier.coeff`` and ``PairedMultiplier.copy``,
  and the x-pairing of two space-time functions (formerly
  ``SpaceTimeFunction.pairing``).
- Test-only references that left the package: the frequency grid with its
  weighted Lipschitz norm and eigenvalue audit, the real-coordinate fields
  of stages 1 and 2 with their complexification, and the action of a block
  operator on a space-time function.
- ``AngleFunction.eval_at`` with its phases formed as the complex product
  ``(1j * points) @ ells.T``, which the one real product replaced.
- The test-only predicates of ``BlockOperator``: ``is_real``,
  ``is_symmetric`` and ``is_selfadjoint``, and
  ``PairedBlockOperator.is_hamiltonian``, now functions of the operator.
- ``hamiltonian._neumann_inverse`` and the bare-map branch of
  ``hamiltonian.push_forward`` (a map close to the identity, inverted by
  ``phi_inverse`` or the Neumann series), before it took an ``ExpMap`` only.
- The real-coordinate 2x2 block matrix ``hamiltonian.BlockMatrix2`` with its
  J, and the symplecticity check Phi^T J Phi = J that
  ``hamiltonian.symplectic_check`` made before it tested Phi^sigma Phi = I.
- The test-only per-entry constructors ``BlockOperator.set_block`` and
  ``AngleFunction.from_modes``, now functions.
- ``PairedMultiplier.compose`` as it was before it skipped the products of
  an identically zero factor.
- Test-only helpers that left the package: ``SpectralLattice.vector``,
  ``EigenData.from_blocks`` and ``SylvesterOperator.denominators``.
"""

import itertools
import math

import numpy as np

from wavekam import blockop, hamiltonian, multiplier
from wavekam.blockop import (BlockOperator, PairedBlockOperator, compose,
                             diagonal_part, rank_one_blocks, smoothing_projector)
from wavekam.dynamics import _chain, _rk4_increments, evolve_reduced
from wavekam.errors import (ContractViolation, InversionError, ParameterError,
                            ResonanceError, WavekamError)
from wavekam.hamiltonian import ExpMap
from wavekam.kam import (KamState, SylvesterOperator, _melnikov_scan,
                         assemble_homological_solution)
from wavekam.resonance import EigenData, ResonanceReport, _combo_grid, _gap
from wavekam.series import truncated_series
from wavekam.spectrum import (AngleFunction, SpaceTimeFunction, _at_angles,
                              ell_table)


# ---------------------------------------------------------------------------
# KAM Melnikov conditions (formerly kam._melnikov_scan, kam.check_melnikov,
# SylvesterOperator.inverse_norm)
# ---------------------------------------------------------------------------


def inverse_norm(syl):
    """||A^{-1}||_Op = 1 / min |omega.ell + lambda -+ mu|."""
    dmin = float(np.min(np.abs(sylvester_denominators(syl))))
    return math.inf if dmin == 0.0 else 1.0 / dmin


def check_melnikov(state, lattice, config, omega, ell, a_sq, b_sq, kind):
    """Verdict for one (ell, alpha, beta): inverse norm against the threshold.

    Strict inequality required; kind '-' skips (0, alpha, alpha).
    """
    ell = tuple(int(x) for x in ell)
    if kind == "-" and a_sq == b_sq and not any(ell):
        return True, math.inf
    syl = sylvester_from_state(state, lattice, ell, a_sq, b_sq, kind, omega)
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
    # per ell as np.dot rounds it, the one rounding of omega . ell in kam
    omega_ell = (ell_arr[:, None, :] @ omega)[:, 0]
    bracket = np.maximum(1.0, np.linalg.norm(ell_arr, axis=1))
    eigs = {a_sq: state.eig(lattice, a_sq)[0] for a_sq in state.d_blocks}
    eigs_conj = {a_sq: state.eig(lattice, a_sq, "+")[0]
                 for a_sq in state.d_blocks}
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


def _windows(xs, d, thr_max):
    """Index ranges [lo, hi) of the sorted xs that can fail against some d:
    the half-width covers the rounding of x + d and of the window ends."""
    reach = 2.0 * thr_max + 1e-15 * np.abs(d)
    return (np.searchsorted(xs, -d - reach),
            np.searchsorted(xs, -d + reach, side="right"))


def hull_hits(wl, xs, every, starts, thr_max):
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


def divisor_check(xs, combos, thr, closed=False):
    """The small-divisor kernel: which x fail min_d |x + d| against thr.

    ``xs`` ascends, ``combos`` comes from ``sorted_combos`` and ``thr``
    broadcasts against xs, with leading axes for several threshold sets.
    Only the x in a window around some -d are read (sorted range queries);
    their min_d |x + d| is ``_gap``'s.
    Returns (pos, gap, bad): window positions in xs, their minima, and
    bad[..., p] where pos[p] fails: not gap > thr when ``closed`` (ties fail,
    the KAM rule), else not gap >= thr (ties pass, the classifier rule).
    """
    thr = np.asarray(thr, dtype=float)
    lo, hi = _windows(xs, combos, np.max(thr, initial=0.0))
    edges = (np.bincount(lo, minlength=xs.size + 1)
             - np.bincount(hi, minlength=xs.size + 1))
    pos = np.flatnonzero(np.cumsum(edges[:-1]))
    gap = _gap(xs[pos], combos)
    t = np.broadcast_to(thr, thr.shape[:-1] + xs.shape)[..., pos]
    return pos, gap, ~(gap > t) if closed else ~(gap >= t)


# ---------------------------------------------------------------------------
# Per-block homological solve (formerly kam.assemble_homological_solution,
# SylvesterOperator.from_state and the body of kam.sylvester_solve)
# ---------------------------------------------------------------------------


def sylvester_from_state(state, lattice, ell, a_sq, b_sq, sign, omega):
    left = state.d_blocks[a_sq]
    right = state.d_blocks[b_sq]
    if sign == "+":
        perm = lattice.cluster(b_sq).neg_perm
        right = np.conj(right[np.ix_(perm, perm)])
    return SylvesterOperator(ell, a_sq, b_sq, sign, left, right, omega)


def sylvester_solve_per_block(syl, rhs):
    """Solve A^sign X = -i rhs in the joint eigenbasis of one block."""
    la, ua, lb, ub = syl.eig()
    den = sylvester_denominators(syl)
    dmin = float(np.min(np.abs(den)))
    if dmin == 0.0:
        raise ResonanceError(syl.ell, syl.a_sq, syl.b_sq, syl.sign, 0.0)
    rhs = np.asarray(rhs, dtype=complex)
    y = ua.conj().T @ (-1j * rhs) @ ub
    x = ua @ (y / den) @ ub.conj().T
    return x, 1.0 / dmin


def assemble_per_block(state, lattice, config, omega, n_cut):
    """Psi with -omega.dphi Psi + [D, Psi] + Pi_N R = Pi_N R_diag, one
    Sylvester solve per stored block."""
    rem = state.remainder
    zero = (0,) * rem.r1.nu
    solved = ({}, {})
    for blocks, part, sign in ((solved[0], rem.r1, "-"), (solved[1], rem.r2, "+")):
        for (ell, a_sq, b_sq), mat in block_items(part):
            size = max(
                np.linalg.norm(ell), lattice.alpha(a_sq), lattice.alpha(b_sq)
            )
            if size > n_cut or (sign == "-" and ell == zero and a_sq == b_sq):
                continue
            syl = sylvester_from_state(
                state, lattice, ell, a_sq, b_sq, sign, omega
            )
            blocks[(ell, a_sq, b_sq)], _ = sylvester_solve_per_block(syl, mat)
    return PairedBlockOperator(
        *(BlockOperator(lattice, rem.r1.nu, rem.r1.ell_max, b) for b in solved))


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
                    gap = np.abs(wl + _combo_grid(la, lb, "-"))
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
                    gap = np.abs(wl + _combo_grid(la, lb, "+"))
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
    value = abs(wl + (la - lb)) if cert["kind"] == "R" else abs(wl + (la + lb))
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


# ---------------------------------------------------------------------------
# RK4 on one dense mode vector, stage by stage (formerly
# dynamics.evolve_original)
# ---------------------------------------------------------------------------


# steps per forcing table: the table holds 2 * _BLOCK_STEPS + 1 stage times,
# so its memory does not grow with the horizon
_BLOCK_STEPS = 64


def evolve_original_stages(problem, omega, v0, psi0, horizon, dt,
                            n_samples=33, keep_states=True):
    """RK4 trajectory of the first-order system on the Fourier truncation.

    v0, psi0: dicts j -> complex (zero-average x-data).  dt must resolve the
    forcing and the largest retained spatial frequency: dt <= 0.5/(|omega| +
    j_max).

    The state lives on the initial modes and, when eps != 0, on the x-support
    of every b_k, c_k.  This set is closed under the flow: Lap and a(omega t)
    are diagonal, and the rank forcing b_k <c_k, v> + c_k <b_k, v> lands only
    on that support.  The forcing is tabulated at the stage times of
    ``_BLOCK_STEPS`` steps at a time.
    """
    omega = np.asarray(omega, dtype=float)
    cfl = 0.5 / (float(np.linalg.norm(omega)) + problem.j_max)
    if dt > cfl:
        raise ParameterError(f"dt = {dt:.3e} violates the step bound {cfl:.3e}")
    eps = problem.epsilon
    pairs = problem.rank_pairs if eps else []
    modes = sorted(set(v0).union(psi0, *(f.space_modes() for pair in pairs
                                         for f in pair)))
    lat = problem.lattice
    for j in modes:
        if tuple(j) not in lat.cluster_of_point:
            raise ParameterError(f"mode {j} outside the lattice")
    n = len(modes)
    nsq = np.array([float(sum(x * x for x in j)) for j in modes])
    y = np.array([v0.get(j, 0j) for j in modes]
                 + [psi0.get(j, 0j) for j in modes], dtype=complex)
    # columns: a, then b_j, c_j of each pair on the modes, then c_-j, b_-j
    negs = [tuple(-x for x in j) for j in modes]
    cols = [problem.a]
    cols += [f.angle_part(j) for b, c in pairs for f in (b, c) for j in modes]
    cols += [f.angle_part(j) for b, c in pairs for f in (c, b) for j in negs]
    coef = np.stack([f.coeffs.ravel() for f in cols], axis=1)
    keep = np.any(coef != 0, axis=1)
    coef = coef[keep]
    ells = ell_table(problem.a.nu, problem.a.ell_max)[0][keep]

    def rhs(lin, rank, state):
        # rows of u: eps b_k, eps c_k on the modes; of w: c_k, b_k at -j
        u, w = rank
        vpart = state[:n]
        return np.concatenate([state[n:], lin * vpart + (w @ vpart) @ u])

    n_steps = int(math.ceil(horizon / dt))
    sample_every = max(1, n_steps // max(1, n_samples - 1))
    times, nv, npsi, states = [], [], [], []
    t = 0.0

    def record(t, state):
        times.append(t)
        nv.append({j: state[i] for i, j in enumerate(modes)})
        npsi.append({j: state[n + i] for i, j in enumerate(modes)})
        if keep_states:
            states.append(state.copy())

    record(t, y)
    for k0 in range(0, n_steps, _BLOCK_STEPS):
        # stage times t_k, t_k + h_k / 2, t_k + h_k = t_(k+1) of the block
        hs, stage_t = [], [t]
        for _ in range(min(_BLOCK_STEPS, n_steps - k0)):
            tk = stage_t[-1]
            hs.append(min(dt, horizon - tk))
            stage_t += [tk + hs[-1] / 2, tk + hs[-1]]
        phi = np.asarray(stage_t)[:, None] * omega
        vals = np.exp(1j * (phi @ ells.T)) @ coef
        lin = -(1.0 + eps * vals[:, :1].real) * nsq
        rank = vals[:, 1:].reshape(len(stage_t), 2, 2 * len(pairs), n)
        rank[:, 0] *= eps
        for k, h in enumerate(hs, k0):
            r = 2 * (k - k0)
            k1 = rhs(lin[r], rank[r], y)
            k2 = rhs(lin[r + 1], rank[r + 1], y + h / 2 * k1)
            k3 = rhs(lin[r + 1], rank[r + 1], y + h / 2 * k2)
            k4 = rhs(lin[r + 2], rank[r + 2], y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t = t + h
            if (k + 1) % sample_every == 0 or k == n_steps - 1:
                record(t, y)
    return times, nv, npsi, states


# ---------------------------------------------------------------------------
# RK4 by step maps, one forcing table and one chain per block (formerly
# dynamics.evolve_original)
# ---------------------------------------------------------------------------


def evolve_original_blocks(problem, omega, v0, psi0, horizon, dt, n_samples=33):
    """``dynamics.evolve_original`` as it was before its tables held several
    blocks: blocks of steps end after ``_BLOCK_STEPS`` steps or at a sample,
    and per block the forcing is tabulated at the stage times, each step's
    RK4 map I + E is formed in closed form (one (2|C|, 2|C|) matrix for the
    coupled set C, one 2 x 2 per other mode), the steps are multiplied
    pairwise in that increment form and applied once as y <- y + E y.
    Returns (times, states) as ``evolve_original`` does.
    """
    omega = np.asarray(omega, dtype=float)
    cfl = 0.5 / (float(np.linalg.norm(omega)) + problem.j_max)
    if dt > cfl:
        raise ParameterError(f"dt = {dt:.3e} violates the step bound {cfl:.3e}")
    eps = problem.epsilon
    pairs = problem.rank_pairs if eps else []
    modes = sorted(set(v0).union(psi0, *(f.space_modes() for pair in pairs
                                         for f in pair)))
    lat = problem.lattice
    for j in modes:
        if tuple(j) not in lat.cluster_of_point:
            raise ParameterError(f"mode {j} outside the lattice")
    n = len(modes)
    nsq = np.array([float(sum(x * x for x in j)) for j in modes])
    y = np.array([v0.get(j, 0j) for j in modes]
                 + [psi0.get(j, 0j) for j in modes], dtype=complex)
    # columns: a, then b_j, c_j of each pair on the modes, then c_-j, b_-j;
    # the rank columns are cut to the coupled set C
    negs = [tuple(-x for x in j) for j in modes]
    cols = [problem.a]
    cols += [f.angle_part(j) for b, c in pairs for f in (b, c) for j in modes]
    cols += [f.angle_part(j) for b, c in pairs for f in (c, b) for j in negs]
    coef = np.stack([f.coeffs.ravel() for f in cols], axis=1)
    rank = coef[:, 1:].reshape(len(coef), 4 * len(pairs), n)
    coupled = np.flatnonzero(np.any(rank, axis=(0, 1)))
    single, k = np.setdiff1d(np.arange(n), coupled), len(coupled)
    coef = np.concatenate(
        [coef[:, :1], rank[..., coupled].reshape(len(coef), -1)], axis=1)
    keep = np.any(coef != 0, axis=1)
    coef = coef[keep]
    ells = ell_table(problem.a.nu, problem.a.ell_max)[0][keep]
    block_steps = min(_BLOCK_STEPS,
                      max(1, blockop._CHUNK_BYTES // (64 * max(k, 1) ** 2)))

    n_steps = int(math.ceil(horizon / dt))
    sample_every = max(1, n_steps // max(1, n_samples - 1))
    t, times, rows = 0.0, [0.0], [y.copy()]
    yc, ys = np.r_[coupled, n + coupled], np.c_[single, n + single]
    k0 = 0
    while k0 < n_steps:
        k1 = min(k0 + block_steps, n_steps,
                 (k0 // sample_every + 1) * sample_every)
        # stage times t_k, t_k + h_k / 2, t_k + h_k = t_(k+1) of the block
        hs, stage_t = [], [t]
        for _ in range(k1 - k0):
            tk = stage_t[-1]
            hs.append(min(dt, horizon - tk))
            stage_t += [tk + hs[-1] / 2, tk + hs[-1]]
        t, hs = stage_t[-1], np.asarray(hs)
        vals = _at_angles(np.asarray(stage_t)[:, None] * omega, ells, coef)
        lin = -(1.0 + eps * vals[:, :1].real) * nsq
        # rows of u: eps b_k, eps c_k on C; of w: c_k, b_k at -j
        u, w = np.moveaxis(
            vals[:, 1:].reshape(len(stage_t), 2, 2 * len(pairs), k), 1, 0)
        big = eps * np.swapaxes(u, 1, 2) @ w
        big[:, range(k), range(k)] += lin[:, coupled]
        small = lin[:, single, None, None]
        for ls, idx in ((big, yc), (small, ys)):
            if len(idx):
                step = _chain(_rk4_increments(hs, ls[0:-1:2], ls[1::2], ls[2::2]))
                y[idx] += (step @ y[idx][..., None])[..., 0]
        if k1 % sample_every == 0 or k1 == n_steps:
            times.append(t)
            rows.append(y.copy())
        k0 = k1
    cols = np.array([lat.index[j] for j in modes], dtype=int)
    states = np.zeros((len(rows), 2 * lat.n_points), dtype=complex)
    states[:, np.r_[cols, lat.n_points + cols]] = rows
    return np.array(times), states


def solutions_from_reduced_per_sample(chain, u0, times):
    """``ConjugationChain.solutions_from_reduced`` as it was before it
    evaluated tau, beta and beta_inv at all times at once: per sample time
    three ``eval_at`` calls and one W1 = S(omega t) kron(C, I_n) matrix."""
    reg, lat, omega = chain.reg, chain.problem.lattice, chain.omega

    def tau_of_t(t):
        phi = (omega * t).reshape(1, -1)
        return t + float(reg.stage3.alpha_fn.eval_at(phi).real[0])

    def w1(t):
        phi = (omega * t).reshape(1, -1)
        beta, binv = (float(f.eval_at(phi).real[0])
                      for f in (reg.stage1.beta, reg.stage1.beta_inv))
        root = np.array([sum(x * x for x in j) ** 0.25 for j in lat.points])
        kron = np.kron(2.0 ** (-0.5) * np.array([[1.0, 1.0], [-1j, 1j]]),
                       np.eye(len(root)))
        return np.concatenate([beta / root, binv * root])[:, None] * kron

    taus = [tau_of_t(t) for t in times]
    d_blocks = (chain.kam_state.d_blocks if chain.kam_state is not None
                else reg.d_blocks(lat))
    u = evolve_reduced(d_blocks, lat, u0, taus, t0=tau_of_t(0.0))
    out = np.concatenate([u, np.conj(u[:, lat.neg_perm])], axis=1)
    for row, t, w2 in zip(out, times, chain.w2(taus)):
        row[:] = w1(t) @ (w2 @ row)
    return out


# ---------------------------------------------------------------------------
# frozen-angle action on coefficient dicts (formerly
# BlockOperator.apply_at_phi, PairedBlockOperator.apply_pair_at_phi, _merge,
# FourierMultiplier.values_at_phi, PairedMultiplier.apply_pair_at_phi,
# regularization.rank_terms_apply_at_phi and field_apply_at_phi)
# ---------------------------------------------------------------------------


def block_apply_at_phi(op, coeff_map, phi):
    """Frozen-angle action on x-coefficients: dict j -> complex."""
    phi = np.asarray(phi, dtype=float)
    out = {}
    by_cluster = {}
    for j, v in coeff_map.items():
        a_sq = op.lattice.cluster_of_point.get(tuple(j))
        if a_sq is not None:
            by_cluster.setdefault(a_sq, {})[tuple(j)] = v
    for (ell, a, b), mat in block_items(op):
        if b not in by_cluster:
            continue
        cb = op.lattice.cluster(b)
        ca = op.lattice.cluster(a)
        vec = np.zeros(cb.n_alpha, dtype=complex)
        for j, v in by_cluster[b].items():
            vec[cb.index_of[j]] = v
        res = mat @ vec
        phase = np.exp(1j * float(np.dot(phi, ell)))
        for r, jp in enumerate(ca.points):
            if res[r] != 0:
                out[jp] = out.get(jp, 0j) + phase * res[r]
    return out


def paired_apply_pair_at_phi(op, c1, c2, phi):
    """Frozen-angle action of a PairedBlockOperator on coefficient dicts."""
    a = block_apply_at_phi(op.r1, c1, phi)
    b = block_apply_at_phi(op.r2, c2, phi)
    c = block_apply_at_phi(op.r2.conj(), c1, phi)
    d = block_apply_at_phi(op.r1.conj(), c2, phi)
    return _merge(a, b), _merge(c, d)


def _merge(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0j) + v
    return out


def values_at_phi(r, phi):
    """Symbol values r(phi, alpha) per cluster, at one frozen angle."""
    phi = np.asarray(phi, dtype=float).reshape(1, -1)
    return np.array([complex(r.row(i).eval_at(phi)[0])
                     for i in range(len(r.coeffs))])


def multiplier_apply_pair_at_phi(mult, c1, c2, phi):
    """Frozen-angle action of a PairedMultiplier on x-coefficient dicts."""
    t1 = values_at_phi(mult.r1, phi)
    t2 = values_at_phi(mult.r2, phi)
    lat = mult.lattice
    idx = {a2: i for i, a2 in enumerate(lat.alpha_sqs)}
    v1, v2 = {}, {}
    for j in set(c1) | set(c2):
        a_sq = lat.cluster_of_point.get(tuple(j))
        if a_sq is None:
            continue
        i = idx[a_sq]
        x1 = c1.get(j, 0j)
        x2 = c2.get(j, 0j)
        v1[j] = t1[i] * x1 + t2[i] * x2
        v2[j] = np.conj(t2[i]) * x1 + np.conj(t1[i]) * x2
    return v1, v2


def rank_terms_apply_at_phi(terms, c1, c2, phi, scale=1.0):
    """Frozen-angle action of a list of PairedRankTerms on coefficient dicts."""
    phi = np.asarray(phi, dtype=float)
    v1, v2 = {}, {}
    for t in terms:
        s = 0j
        for side, cs in ((t.right[0], c1), (t.right[1], c2)):
            g = side.x_coeffs_at_phi(phi)
            for j, u in cs.items():
                mj = tuple(-x for x in j)
                if mj in g:
                    s += g[mj] * u
        for target, lf in ((v1, t.left[0]), (v2, t.left[1])):
            for j, lv in lf.x_coeffs_at_phi(phi).items():
                target[j] = target.get(j, 0j) + scale * lv * s
    return v1, v2


def field_apply_at_phi(mult, rank_terms, eps, c1, c2, phi):
    """Frozen-angle action of (paired multiplier + eps * rank part)."""
    v1, v2 = multiplier_apply_pair_at_phi(mult, c1, c2, phi)
    if rank_terms:
        w1, w2 = rank_terms_apply_at_phi(rank_terms, c1, c2, phi, scale=eps)
        for j, v in w1.items():
            v1[j] = v1.get(j, 0j) + v
        for j, v in w2.items():
            v2[j] = v2.get(j, 0j) + v
    return v1, v2


# ---------------------------------------------------------------------------
# Dict block algebra (formerly blockop.compose and BlockOperator.decay_norm
# over the (ell, alpha^2, beta^2) -> matrix map; the map is read through
# items())
# ---------------------------------------------------------------------------


def block_items(op):
    """((ell, alpha^2, beta^2), block) of every stored block, keys sorted
    (formerly ``BlockOperator.items``)."""
    box = ell_table(op.nu, op.ell_max)[0]
    ells, order = {}, []
    for (a, b), (idx, _) in op.stacks.items():
        ells[(a, b)] = box[idx].tolist()
        order.extend((p, a, b, i) for i, p in enumerate(idx.tolist()))
    for _, a, b, i in sorted(order):
        yield (tuple(ells[(a, b)][i]), a, b), op.stacks[(a, b)][1][i]


def _key_norm(ell):
    return float(np.linalg.norm(ell))


def _hs_sq(mat):
    return float(np.sum(np.abs(mat) ** 2))


def decay_norm_dicts(op, s):
    """sup over (alpha, beta) of the ell-weighted HS mass, compensated sums."""
    acc = {}
    for (ell, a, b), mat in block_items(op):
        w = max(
            1.0,
            _key_norm(ell),
            op.lattice.alpha(a),
            op.lattice.alpha(b),
        ) ** (2.0 * s)
        acc.setdefault((a, b), []).append(w * _hs_sq(mat))
    if not acc:
        return 0.0
    return math.sqrt(max(math.fsum(v) for v in acc.values()))


def compose_dicts(R, T):
    """Operator product R(phi) T(phi): ell-convolution, block-matrix product.

    The result is re-truncated to the ambient |ell|_inf box; the discarded HS
    mass is stored in ``out.meta['truncation_loss']`` so truncation error
    stays observable.  Products are batched per cluster triple and
    scatter-added (exact sums, no FFT rounding).
    """
    R._check_compat(T)
    L = R.ell_max
    nu = R.nu
    n_box = 2 * L + 1
    groups_r = {}
    for (ell, a, b), mat in block_items(R):
        groups_r.setdefault((a, b), []).append((ell, mat))
    groups_t = {}
    for (ell, b, c), mat in block_items(T):
        groups_t.setdefault(b, {}).setdefault(c, []).append((ell, mat))
    acc = {}
    lost = []
    strides = np.array([n_box**k for k in range(nu - 1, -1, -1)])
    for (a, b), left in sorted(groups_r.items()):
        right_by_c = groups_t.get(b)
        if not right_by_c:
            continue
        ell1 = np.array([e for e, _ in left])
        m1 = np.stack([m for _, m in left])
        for c, right in sorted(right_by_c.items()):
            ell2 = np.array([e for e, _ in right])
            m2 = np.stack([m for _, m in right])
            na, nc = m1.shape[1], m2.shape[2]
            key = (a, c)
            if key not in acc:
                acc[key] = np.zeros((n_box**nu, na, nc), dtype=complex)
            dest = acc[key]
            chunk = max(1, 2**24 // max(1, len(right) * na * nc * 16))
            for lo in range(0, len(left), chunk):
                hi = min(lo + chunk, len(left))
                # (i,a,j,c) via one BLAS GEMM, then bring j next to i
                prods = np.tensordot(m1[lo:hi], m2, axes=(2, 1))
                prods = np.ascontiguousarray(prods.transpose(0, 2, 1, 3))
                ells = ell1[lo:hi, None, :] + ell2[None, :, :]
                inbox = np.all(np.abs(ells) <= L, axis=-1)
                if not np.all(inbox):
                    bad = prods[~inbox]
                    lost.append(float(np.sum(np.abs(bad) ** 2)))
                idx = (ells[inbox] + L) @ strides
                np.add.at(dest, idx, prods[inbox])
    out = BlockOperator(R.lattice, R.nu, R.ell_max)
    for (a, c), dest in sorted(acc.items()):
        nonzero = np.nonzero(np.any(dest != 0, axis=(1, 2)))[0]
        for flat in nonzero.tolist():
            ell = []
            rem = flat
            for k in range(nu):
                q, rem = divmod(rem, n_box ** (nu - 1 - k))
                ell.append(int(q) - L)
            set_block(out, tuple(ell), a, c, dest[flat])
    out.meta["truncation_loss"] = math.sqrt(math.fsum(lost)) if lost else 0.0
    return out


def paired_compose_four(p, q):
    """Paired product as four plain products, two conj operators and two
    sums (formerly the body of ``PairedBlockOperator.compose``); each plain
    product is ``compose_dicts``.  Each top-row entry reports the sum of its
    two products' truncation losses (a triangle bound), the pair the max.
    """

    def entry(x, y, u, v):
        a, b = compose_dicts(x, y), compose_dicts(u, v)
        out = a + b
        out.meta["truncation_loss"] = (a.meta["truncation_loss"]
                                       + b.meta["truncation_loss"])
        return out

    a = entry(p.r1, q.r1, p.r2, q.r2.conj())
    b = entry(p.r1, q.r2, p.r2, q.r1.conj())
    out = PairedBlockOperator(a, b)
    out.meta["truncation_loss"] = max(a.meta["truncation_loss"],
                                      b.meta["truncation_loss"])
    return out


def rank_one_blocks_per_pair(q, g, lattice):
    """``blockop.rank_one_blocks`` as one ``AngleFunction.product`` per
    (j, j') pair, its nonzero modes added block by block into a dict."""
    blocks = {}
    for j in q.space_modes():
        a_sq = lattice.cluster_of_point.get(j)
        if a_sq is None:
            continue
        ca = lattice.cluster(a_sq)
        r = ca.index_of[j]
        qa = q.angle_part(j)
        for jp in g.space_modes():
            mjp = tuple(-x for x in jp)
            b_sq = lattice.cluster_of_point.get(mjp)
            if b_sq is None:
                continue
            cb = lattice.cluster(b_sq)
            col = cb.index_of[mjp]
            conv, _ = qa.product(g.angle_part(jp))
            for ell, val in conv.modes():
                key = (ell, a_sq, b_sq)
                if key not in blocks:
                    blocks[key] = np.zeros((ca.n_alpha, cb.n_alpha), dtype=complex)
                blocks[key][r, col] += val
    out = BlockOperator(lattice, q.nu, q.ell_max, blocks)
    out.drop_zero_blocks()
    return out


def dump_blocks_rows(path, op, name=""):
    """``reporting.dump_blocks`` as one row dict per block through
    ``write_json``'s recursive conversion."""
    from wavekam.reporting import write_json

    rows = [{"ell": list(ell), "alpha_sq": a_sq, "beta_sq": b_sq,
             "entries": np.stack((mat.real, mat.imag), -1).ravel().tolist()}
            for (ell, a_sq, b_sq), mat in block_items(op)]
    write_json(path, {"name": name, "nu": op.nu, "ell_max": op.ell_max,
                      "rows": rows})


# ---------------------------------------------------------------------------
# Finite-rank operators and the dense action bound (formerly
# blockop.FiniteRankOperator, _angle_pair, finite_rank_to_blocks and
# sobolev_action_bound_check)
# ---------------------------------------------------------------------------


class FiniteRankOperator:
    """R(phi)[v] = sum_k b_k <c_k, v> + c_k <b_k, v>, pairings in x.

    Symmetric by construction; b_k, c_k are zero-average in x by the
    SpaceTimeFunction contract.
    """

    def __init__(self, pairs):
        self.pairs = list(pairs)
        for b, c in self.pairs:
            if not isinstance(b, SpaceTimeFunction) or not isinstance(
                c, SpaceTimeFunction
            ):
                raise ContractViolation("rank pairs must be space-time functions")

    @property
    def rank_count(self):
        return len(self.pairs)

    def apply(self, v):
        out = None
        for b, c in self.pairs:
            t = b.copy()
            ip_c, _ = _angle_pair(c, v)
            term1, _ = t.mul_angle(ip_c)
            ip_b, _ = _angle_pair(b, v)
            term2, _ = c.copy().mul_angle(ip_b)
            term = term1 + term2
            out = term if out is None else out + term
        if out is None:
            raise ContractViolation("empty finite-rank operator")
        return out


def pairing(self, other):
    """<g, h> = normalized integral of g*h over x, per phi: an AngleFunction
    (formerly SpaceTimeFunction.pairing).

    In coefficients: sum_j ghat_{-j}(.) conv hhat_j(.).
    """
    acc = AngleFunction(self.nu, self.ell_max)
    for j, f in other.comps.items():
        mj = tuple(-x for x in j)
        if mj in self.comps:
            prod, _ = self.comps[mj].product(f)
            acc = acc + prod
    return acc


def _angle_pair(g, h):
    return pairing(g, h), 0.0


def finite_rank_to_blocks(K, lattice, check_reality_tol=1e-12):
    """Convert a FiniteRankOperator to its BlockOperator representation."""
    for b, c in K.pairs:
        for f, name in ((b, "b"), (c, "c")):
            # zero-average is structural for SpaceTimeFunction; re-validate cheaply
            if any(all(x == 0 for x in j) for j in f.space_modes()):
                raise ContractViolation(f"{name}_k has a j = 0 mode")
    out = None
    for b, c in K.pairs:
        term = rank_one_blocks(b, c, lattice) + rank_one_blocks(c, b, lattice)
        out = term if out is None else out + term
    return out


def sobolev_action_bound_check(R, s, s0):
    """Compare the dense operator norm on H^s with the decay-norm bound.

    For phi-independent operators the chain
    ||R||_{B(H^s)} <= ||R||_{B(L^2, H^s)} <= C_trunc |R|_{s+2s0}
    holds with the truncation constant C_trunc = sum_{alpha} alpha^{-2 s0}
    (both cluster sums in the proof are equal on the truncation).
    """
    z = (0,) * R.nu
    if any(ell != z for (ell, _, _), _ in block_items(R)):
        raise ParameterError("dense action bound check expects a phi-independent operator")
    M, _, pts = to_dense(R, ell_box=0)
    weights = np.array([math.sqrt(sum(x * x for x in p)) for p in pts])
    Ws = np.diag(weights**s)
    op_l2_hs = float(np.linalg.norm(Ws @ M, 2))
    op_hs = float(np.linalg.norm(Ws @ M @ np.diag(weights ** (-float(s))), 2))
    decay = R.decay_norm(s + 2 * s0)
    c_trunc = math.fsum(
        c.alpha ** (-2.0 * s0) for c in R.lattice.clusters
    )
    return {
        "operator_norm_hs": op_hs,
        "operator_norm_l2_to_hs": op_l2_hs,
        "decay_norm": decay,
        "bound_constant": c_trunc,
        "bound_value": c_trunc * decay,
        "satisfied": op_l2_hs <= c_trunc * decay * (1 + 1e-12),
    }


# ---------------------------------------------------------------------------
# Direct convolution (formerly the loop in spectrum._convolve_full,
# spectrum._convolve_full itself, one pair of arrays per call, and the
# row-batched spectrum._convolve_rows)
# ---------------------------------------------------------------------------


def convolve_full(a, b):
    """Full linear convolution of two equal-shape dense coefficient arrays.

    Direct summation when the data is sparse (exact), FFT otherwise.
    """
    nu = a.ndim
    n = a.shape[0]
    out_n = 2 * n - 1
    ia = np.argwhere(a != 0)
    ib = np.argwhere(b != 0)
    if len(ia) * len(ib) <= 16384:
        # every product at once; index sums need no carry in the output grid,
        # and bincount adds each bin's products in (ka, kb) order
        shape = (out_n,) * nu
        at = (np.ravel_multi_index(ia.T, shape)[:, None]
              + np.ravel_multi_index(ib.T, shape)[None, :]).ravel()
        prods = np.multiply.outer(a[tuple(ia.T)], b[tuple(ib.T)]).ravel()
        out = np.empty(out_n**nu, dtype=complex)
        out.real = np.bincount(at, prods.real, out_n**nu)
        out.imag = np.bincount(at, prods.imag, out_n**nu)
        return out.reshape(shape)
    axes = tuple(range(nu))
    fa = np.fft.fftn(a, s=(out_n,) * nu, axes=axes)
    fb = np.fft.fftn(b, s=(out_n,) * nu, axes=axes)
    out = np.fft.ifftn(fa * fb, axes=axes)
    # inputs are exact trig polynomials; kill fft noise below the double floor
    scale = np.max(np.abs(out)) if out.size else 0.0
    if scale > 0:
        out[np.abs(out) < 1e-15 * scale] = 0.0
    return out


def convolve_rows(a, b):
    """Full linear convolutions of the rows of two (k, n, ..., n) coefficient
    stacks, shape (k, 2n - 1, ..., 2n - 1), each row bit for bit as if alone
    (formerly ``spectrum._convolve_rows``).

    A row with over 16384 products goes by FFT; the others are summed
    directly (exact), a bincount per chunk of rows over the union of their
    supports: index sums need no carry in the output grid, rows sit a grid
    apart, each bin adds its row's products in (ka, kb) order and the
    union's extra products are exact zeros.  A chunk keeps its products
    within ``blockop._CHUNK_BYTES``.  A lone product is formed as numpy's
    scalar loop forms it, without the fused multiply-add of its SIMD loop.
    """
    k, box = len(a), a.shape[1:]
    shape = tuple(2 * n - 1 for n in box)
    size = math.prod(shape)
    fa, fb = a.reshape(k, -1), b.reshape(k, -1)
    nza, nzb = fa != 0, fb != 0
    count = nza.sum(axis=1) * nzb.sum(axis=1)
    out = np.zeros((k, size), dtype=complex)
    if not count.any():
        return out.reshape((k,) + shape)
    for i in np.flatnonzero(count > 16384):
        out[i] = fft_convolve(a[i], b[i]).ravel()

    def at(flat):  # box positions -> output grid positions
        return np.ravel_multi_index(np.unravel_index(flat, box), shape)

    lone = np.flatnonzero(count == 1)
    ia, ib = nza[lone].argmax(axis=1), nzb[lone].argmax(axis=1)
    x, y = fa[lone, ia], fb[lone, ib]
    out.real[lone, at(ia) + at(ib)] += x.real * y.real - x.imag * y.imag
    out.imag[lone, at(ia) + at(ib)] += x.real * y.imag + x.imag * y.real
    direct = np.flatnonzero((count > 1) & (count <= 16384))
    union = nza[direct].any(axis=0).sum() * nzb[direct].any(axis=0).sum()
    step = max(1, blockop._CHUNK_BYTES // (16 * max(union, 1)))
    for rows in np.split(direct, range(step, len(direct), step)):
        ia = np.flatnonzero(nza[rows].any(axis=0))
        ib = np.flatnonzero(nzb[rows].any(axis=0))
        pos = ((np.arange(len(rows)) * size)[:, None, None]
               + at(ia)[:, None] + at(ib)).ravel()
        prods = fa[rows[:, None], ia][:, :, None] * fb[rows[:, None], ib][:, None, :]
        for part, w in ((out.real, prods.real), (out.imag, prods.imag)):
            part[rows] = np.bincount(pos, w.ravel(), len(rows) * size).reshape(-1, size)
    return out.reshape((k,) + shape)


def fft_convolve(a, b):
    """Full linear convolution by FFT, with the FFT noise floor cut
    (formerly ``spectrum._fft_convolve``)."""
    s, axes = (2 * a.shape[0] - 1,) * a.ndim, tuple(range(a.ndim))
    out = np.fft.ifftn(np.fft.fftn(a, s, axes) * np.fft.fftn(b, s, axes), axes=axes)
    # inputs are exact trig polynomials; kill fft noise below the double floor
    scale = np.max(np.abs(out))
    if scale > 0:
        out[np.abs(out) < 1e-15 * scale] = 0.0
    return out


# blockop._product_rows sums the same products in another order (and the
# oracle takes rows of over 16384 products by FFT), so each coefficient of a
# row's product stays within this times |a|_2 |b|_2, which bounds every
# coefficient of the product
ROW_PRODUCT_TOL = 1e-14


def assert_row_product_close(got, a, b, full):
    """``got``, the truncated product of coefficient arrays a and b, within
    ROW_PRODUCT_TOL |a|_2 |b|_2 of the box part of ``full``, their full
    convolution."""
    L = (a.shape[0] - 1) // 2
    want = full[(slice(L, 3 * L + 1),) * a.ndim]
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    assert np.max(np.abs(got - want), initial=0.0) <= ROW_PRODUCT_TOL * scale


def convolve_full_loop(a, b):
    """Full linear convolution of two equal-shape arrays by direct summation."""
    nu = a.ndim
    out_n = 2 * a.shape[0] - 1
    out = np.zeros((out_n,) * nu, dtype=complex)
    for ka in np.argwhere(a != 0):
        va = a[tuple(ka)]
        for kb in np.argwhere(b != 0):
            out[tuple(ka + kb)] += va * b[tuple(kb)]
    return out


# ---------------------------------------------------------------------------
# Dense flattening (formerly BlockOperator.to_dense and
# PairedBlockOperator.to_dense)
# ---------------------------------------------------------------------------


def to_dense(op, ell_box=None):
    """Flatten a block or paired block operator to a matrix over the
    (ell, j) basis, ell in |ell|_inf <= ell_box (small sizes only).

    Entry rule: M[(ell, j), (ell', j')] = Rhat_j^{j'}(ell - ell'); a paired
    operator gives the full 2x2 arrangement.
    """
    if isinstance(op, PairedBlockOperator):
        m11, ells, pts = to_dense(op.r1, ell_box)
        m12, _, _ = to_dense(op.r2, ell_box)
        m21, _, _ = to_dense(op.r2.conj(), ell_box)
        m22, _, _ = to_dense(op.r1.conj(), ell_box)
        top = np.hstack([m11, m12])
        bot = np.hstack([m21, m22])
        return np.vstack([top, bot]), ells, pts
    ell_box = op.ell_max if ell_box is None else ell_box
    ells = sorted(itertools.product(range(-ell_box, ell_box + 1), repeat=op.nu))
    pts = list(op.lattice.all_points())
    index = {}
    for i, ell in enumerate(ells):
        for k, j in enumerate(pts):
            index[(ell, j)] = i * len(pts) + k
    n = len(ells) * len(pts)
    M = np.zeros((n, n), dtype=complex)
    for (ell, a, b), mat in block_items(op):
        ca = op.lattice.cluster(a)
        cb = op.lattice.cluster(b)
        for lp in ells:
            lo = tuple(x + y for x, y in zip(ell, lp))
            if max(abs(x) for x in lo) > ell_box:
                continue
            for r, jr in enumerate(ca.points):
                row = index[(lo, jr)]
                for c, jc in enumerate(cb.points):
                    M[row, index[(lp, jc)]] += mat[r, c]
    return M, ells, pts


# ---------------------------------------------------------------------------
# Per-ell loops over the box (formerly AngleFunction.sample,
# AngleFunction.from_samples, spectrum.diophantine_check and blockop._ells_of)
# ---------------------------------------------------------------------------


def sample(self, grid_n):
    """Values on the uniform grid (2pi k / grid_n), shape (grid_n,)*nu."""
    if grid_n < 2 * self.ell_max + 1:
        raise ParameterError("sampling grid too small for exact evaluation")
    spec = np.zeros((grid_n,) * self.nu, dtype=complex)
    L = self.ell_max
    it = np.ndindex(*self.coeffs.shape)
    for raw in it:
        c = self.coeffs[raw]
        if c != 0:
            ell = tuple((x - L) % grid_n for x in raw)
            spec[ell] += c
    return np.fft.ifftn(spec) * grid_n**self.nu


def from_samples(cls, values, ell_max):
    """Project grid values back to the box; returns (function, alias mass)."""
    values = np.asarray(values, dtype=complex)
    nu = values.ndim
    grid_n = values.shape[0]
    spec = np.fft.fftn(values) / grid_n**nu
    total = math.fsum((np.abs(spec) ** 2).ravel().tolist())
    f = cls(nu, ell_max)
    kept = 0.0
    for raw in np.ndindex(*spec.shape):
        c = spec[raw]
        if c == 0:
            continue
        ell = tuple(x if x <= grid_n // 2 else x - grid_n for x in raw)
        if all(abs(x) <= ell_max for x in ell):
            f[ell] = c
            kept += abs(c) ** 2
    alias = math.sqrt(max(total - kept, 0.0))
    return f, alias


def _ell_iter(nu, ell_max):
    for ell in itertools.product(range(-ell_max, ell_max + 1), repeat=nu):
        if any(ell):
            yield ell


def diophantine_check(omega, gamma, tau, ell_max):
    """Check |omega . ell| >= gamma/|ell|^tau for 0 < |ell|_inf <= ell_max.

    Returns (ok, worst margin) with margin = min over ell of
    |omega.ell| |ell|^tau / gamma.
    """
    if ell_max < 1:
        raise ParameterError("ell_max must be >= 1")
    omega = np.asarray(omega, dtype=float)
    worst = math.inf
    for ell in _ell_iter(omega.size, ell_max):
        div = abs(float(np.dot(omega, ell)))
        margin = div * np.linalg.norm(ell) ** tau / gamma
        worst = min(worst, margin)
    return worst >= 1.0, worst


def _ells_of(idx, nu, ell_max):
    """(k, nu) ell vectors at flat box positions idx."""
    n = 2 * ell_max + 1
    out = np.empty((len(idx), nu), dtype=np.int64)
    rem = np.asarray(idx, dtype=np.int64)
    for k in range(nu - 1, -1, -1):
        rem, out[:, k] = np.divmod(rem, n)
    return out - ell_max


# ---------------------------------------------------------------------------
# Telescoped KAM step (formerly kam.kam_step, before the Lie series)
# ---------------------------------------------------------------------------


def kam_step_telescoped(state, lattice, config, omega):
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
            "tail_vanished": not (len(rem_high.r1) or len(rem_high.r2)),
        }
    )
    return new_state


# ---------------------------------------------------------------------------
# Frequency grid and weighted Lipschitz norm (formerly spectrum.OmegaGrid,
# spectrum.weighted_lip_norm, errors.LipschitzQuotientError and
# resonance.eigenvalue_lipschitz_audit)
# ---------------------------------------------------------------------------


class LipschitzQuotientError(WavekamError):
    """Coincident parameter samples with unequal values: infinite quotient."""


class OmegaGrid:
    """Rectangular grid of frequency samples in a box of R^nu."""

    def __init__(self, box, counts, gamma, tau):
        self.box = [(float(lo), float(hi)) for lo, hi in box]
        self.counts = [int(c) for c in counts]
        if not 0 < gamma < 1:
            raise ParameterError("gamma must lie in (0, 1)")
        self.gamma = float(gamma)
        self.tau = float(tau)
        axes = [
            np.linspace(lo, hi, c) if c > 1 else np.array([(lo + hi) / 2.0])
            for (lo, hi), c in zip(self.box, self.counts)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.samples = np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def nu(self):
        return len(self.box)

    def __len__(self):
        return self.samples.shape[0]

    def adjacent_pairs(self):
        """Index pairs of neighbors along each axis (the declared pairing)."""
        shape = tuple(self.counts)
        flat = np.arange(int(np.prod(shape))).reshape(shape)
        pairs = []
        for ax in range(len(shape)):
            if shape[ax] < 2:
                continue
            a = np.take(flat, range(shape[ax] - 1), axis=ax).ravel()
            b = np.take(flat, range(1, shape[ax]), axis=ax).ravel()
            pairs.extend(zip(a.tolist(), b.tolist()))
        return pairs


def weighted_lip_norm(values, grid, s=None, norm=None):
    """sup-norm plus gamma times the adjacent-pair Lipschitz quotient.

    values: list of objects indexed like grid.samples.  If ``norm`` is given it
    maps an object to a float and differences are formed with '-'; otherwise
    objects must be functions and ``s`` selects the Sobolev norm.  The
    finite-difference seminorm over adjacent grid pairs is a lower bound of
    the true Lipschitz seminorm (documented approximation).
    """
    if norm is None:
        norm = lambda f: f.sobolev_norm(s)  # noqa: E731
    sup = max(norm(v) for v in values)
    lip = 0.0
    for i, k in grid.adjacent_pairs():
        dist = float(np.linalg.norm(grid.samples[i] - grid.samples[k]))
        dnorm = norm(values[i] - values[k])
        if dist == 0.0:
            if dnorm > 0.0:
                raise LipschitzQuotientError(
                    f"coincident samples {i}, {k} with unequal values"
                )
            continue
        lip = max(lip, dnorm / dist)
    return sup + grid.gamma * lip


def eigenvalue_lipschitz_audit(grid, blocks_per_omega, lattice, slack=1e-10):
    """Check |lambda_k(w1) - lambda_k(w2)| <= ||D(w1) - D(w2)||_HS per cluster.

    Sorted-eigenvalue differences on adjacent grid pairs against the
    Hilbert-Schmidt quotient of the blocks; violations beyond the rounding
    slack are reported.
    """
    if len(grid) < 2:
        raise ParameterError("need at least two grid points")
    violations = []
    quotients = []
    for i, k in grid.adjacent_pairs():
        dist = float(np.linalg.norm(grid.samples[i] - grid.samples[k]))
        if dist == 0.0:
            continue
        for cl in lattice.clusters:
            a_sq = cl.alpha_sq
            m1 = np.asarray(blocks_per_omega[i][a_sq])
            m2 = np.asarray(blocks_per_omega[k][a_sq])
            lam1 = np.linalg.eigvalsh(m1)
            lam2 = np.linalg.eigvalsh(m2)
            lhs = float(np.max(np.abs(lam1 - lam2)))
            rhs = float(np.linalg.norm(m1 - m2, "fro"))
            quotients.append((lhs / dist, rhs / dist))
            if lhs > rhs + slack:
                violations.append(
                    {
                        "pair": (int(i), int(k)),
                        "alpha_sq": a_sq,
                        "eig_quotient": lhs / dist,
                        "hs_quotient": rhs / dist,
                    }
                )
    return {"violations": violations, "quotients": quotients}


# ---------------------------------------------------------------------------
# Block-operator predicates (formerly BlockOperator.is_real, is_symmetric,
# is_selfadjoint, blockop._op_close and PairedBlockOperator.is_hamiltonian)
# ---------------------------------------------------------------------------


def _op_close(x, y, tol):
    diff = x - y
    scale = max(x.hs_total(), 1.0)
    return diff.hs_total() <= tol * scale


def is_real(op, tol=1e-12):
    return _op_close(op, op.conj(), tol)


def is_symmetric(op, tol=1e-12):
    return _op_close(op, op.transpose(), tol)


def is_selfadjoint(op, tol=1e-12):
    return _op_close(op, op.adjoint(), tol)


def is_hamiltonian(op, tol=1e-10):
    """Paired operator with |M^sigma + M|_0 <= tol max(|M|_0, 1)."""
    return op.hamiltonian_residual(0.0) <= tol * max(op.decay_norm(0.0), 1.0)


# ---------------------------------------------------------------------------
# Per-entry constructors (formerly BlockOperator.set_block and
# AngleFunction.from_modes)
# ---------------------------------------------------------------------------


def set_block(op, ell, a_sq, b_sq, mat):
    """Store one validated block of ``op`` in place."""
    p, mat = op._checked(ell, a_sq, b_sq, mat)
    key = (int(a_sq), int(b_sq))
    idx, mats = op.stacks.get(key, (np.empty(0, dtype=np.int64), mat[None][:0]))
    i = int(np.searchsorted(idx, p))
    if i < len(idx) and idx[i] == p:
        mats = mats.copy()
        mats[i] = mat
    else:
        idx = np.concatenate((idx[:i], [p], idx[i:]))
        mats = np.concatenate((mats[:i], mat[None], mats[i:]))
    op.stacks[key] = (idx, mats)


def angle_from_modes(nu, ell_max, modes):
    """AngleFunction from a dict ell-tuple -> complex coefficient."""
    f = AngleFunction(nu, ell_max)
    for ell, v in modes.items():
        f[ell] = v
    return f


# ---------------------------------------------------------------------------
# Real-coordinate 2x2 block matrices and their symplecticity check (formerly
# hamiltonian.BlockMatrix2 and hamiltonian.symplectic_check)
# ---------------------------------------------------------------------------


class BlockMatrix2:
    """General 2x2 arrangement of block operators (no conjugate-row constraint)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        eye = BlockOperator.identity(lattice, nu, ell_max)
        zero = BlockOperator(lattice, nu, ell_max)
        return cls(eye, zero.copy(), zero.copy(), eye.copy())

    @classmethod
    def J(cls, lattice, nu, ell_max):
        eye = BlockOperator.identity(lattice, nu, ell_max)
        zero = BlockOperator(lattice, nu, ell_max)
        return cls(zero.copy(), eye, eye * (-1.0), zero.copy())

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other):
        return BlockMatrix2(*(x + y for x, y in zip(self.entries(), other.entries())))

    def __sub__(self, other):
        return BlockMatrix2(*(x - y for x, y in zip(self.entries(), other.entries())))

    def __mul__(self, scalar):
        return BlockMatrix2(*(x * scalar for x in self.entries()))

    __rmul__ = __mul__

    def compose(self, o):
        return BlockMatrix2(
            compose(self.a, o.a) + compose(self.b, o.c),
            compose(self.a, o.b) + compose(self.b, o.d),
            compose(self.c, o.a) + compose(self.d, o.c),
            compose(self.c, o.b) + compose(self.d, o.d),
        )

    def transpose(self):
        return BlockMatrix2(
            self.a.transpose(), self.c.transpose(),
            self.b.transpose(), self.d.transpose(),
        )

    def omega_dphi(self, omega):
        return BlockMatrix2(*(e.omega_dphi(omega) for e in self.entries()))

    def hs_total(self):
        return math.sqrt(math.fsum(e.hs_total() ** 2 for e in self.entries()))

    def per_mode_frobenius(self):
        """dict ell -> Frobenius norm of the full coefficient matrix at that mode."""
        acc = {}
        for e in self.entries():
            for (ell, _, _), mat in block_items(e):
                acc[ell] = acc.get(ell, 0.0) + float(np.sum(np.abs(mat) ** 2))
        return {ell: math.sqrt(v) for ell, v in acc.items()}

    def decay_norm(self, s):
        return math.fsum(e.decay_norm(s) for e in self.entries())


def real_symplectic_check(phi):
    """Max over stored phi-modes of the Frobenius norm of Phi^T J Phi - J.

    A paired map is taken as the 2x2 matrix (r1 r2; conj r2 conj r1).
    """
    m = phi if isinstance(phi, BlockMatrix2) else BlockMatrix2(
        phi.r1, phi.r2, phi.r2.conj(), phi.r1.conj())
    j = BlockMatrix2.J(m.a.lattice, m.a.nu, m.a.ell_max)
    residual = m.transpose().compose(j.compose(m)) - j
    return max(residual.per_mode_frobenius().values(), default=0.0)


# ---------------------------------------------------------------------------
# Real-coordinate fields (formerly hamiltonian.RealVectorField and
# hamiltonian.complexify): the real 2x2 form of stages 1 and 2
# ---------------------------------------------------------------------------


class RealVectorField(BlockMatrix2):
    """2x2 block field on (v, psi) with reality and Hamiltonian predicates."""

    def is_real(self, tol=1e-12):
        return all(is_real(e, tol) for e in self.entries())

    def hamiltonian_residual(self):
        """Residual of X = J G with G symmetric: needs b = b^T, c = c^T, a^T = -d."""
        r1 = (self.b - self.b.transpose()).hs_total()
        r2 = (self.c - self.c.transpose()).hs_total()
        r3 = (self.a.transpose() + self.d).hs_total()
        return r1 + r2 + r3

    def is_hamiltonian(self, tol=1e-10):
        scale = max(self.hs_total(), 1.0)
        return self.hamiltonian_residual() <= tol * scale


def complexify(x, tol=1e-12):
    """Conjugate a real 2x2 field by the complexification C.

    Returns the paired operator with top row
    r1 = (A + D - i(B - C))/2,  r2 = (A - D + i(B + C))/2.
    """
    if not isinstance(x, BlockMatrix2):
        raise ContractViolation("complexify expects a 2x2 block field")
    for name, e in zip("abcd", x.entries()):
        if not is_real(e, tol):
            raise ContractViolation(f"entry {name} violates the reality predicate")
    r1 = (x.a + x.d) * 0.5 + (x.b - x.c) * (-0.5j)
    r2 = (x.a - x.d) * 0.5 + (x.b + x.c) * (0.5j)
    return PairedBlockOperator(r1, r2)


# ---------------------------------------------------------------------------
# Push-forward by a bare map (formerly hamiltonian._neumann_inverse and the
# bare-map branch of hamiltonian.push_forward)
# ---------------------------------------------------------------------------


def neumann_inverse(phi, max_terms=60, tol=1e-14):
    if isinstance(phi, PairedBlockOperator):
        ident = PairedBlockOperator.identity(phi.lattice, phi.r1.nu, phi.r1.ell_max)
    else:
        ident = BlockMatrix2.identity(phi.a.lattice, phi.a.nu, phi.a.ell_max)
    m = phi - ident
    size = m.decay_norm(0.0)
    if size >= 1.0:
        raise InversionError(
            f"map is not a small perturbation of the identity (|Phi - Id| = {size:.3e})"
        )
    # |t_k| <= |t_j| |m|^(k-j): the term norms bound the geometric tail
    return truncated_series(ident, lambda t, k: t.compose(m) * (-1.0), tol,
                            max_terms, error=InversionError, name="Neumann inverse")


def push_forward(x, phi, omega, phi_inverse=None):
    """``hamiltonian.push_forward`` by a bare operator ``phi`` close to the
    identity, inverted by ``phi_inverse`` or else the Neumann series."""
    inv = phi_inverse if phi_inverse is not None else neumann_inverse(phi)
    return hamiltonian.push_forward(x, ExpMap(phi, inv), omega)


# ---------------------------------------------------------------------------
# Action on a space-time function (formerly BlockOperator.apply and
# blockop._shift_coeffs)
# ---------------------------------------------------------------------------


def block_apply(op, u):
    """Apply to a SpaceTimeFunction (phi-convolution, block action in x)."""
    out = SpaceTimeFunction(u.nu, u.ell_max, u.d)
    # group input coefficients by cluster
    by_cluster = {}
    for j in u.space_modes():
        a_sq = op.lattice.cluster_of_point.get(j)
        if a_sq is None:
            continue
        by_cluster.setdefault(a_sq, []).append(j)
    for (ell, a, b), mat in block_items(op):
        if b not in by_cluster:
            continue
        cb = op.lattice.cluster(b)
        ca = op.lattice.cluster(a)
        vec = [None] * cb.n_alpha
        nonzero = False
        for j in by_cluster[b]:
            vec[cb.index_of[j]] = u.angle_part(j)
            nonzero = True
        if not nonzero:
            continue
        for r, jp in enumerate(ca.points):
            coeffs = None
            for cidx in range(cb.n_alpha):
                f = vec[cidx]
                if f is None or mat[r, cidx] == 0:
                    continue
                term = f.coeffs * mat[r, cidx]
                coeffs = term if coeffs is None else coeffs + term
            if coeffs is None:
                continue
            shifted = _shift_coeffs(coeffs, ell, u.ell_max)
            if jp in out.comps:
                out.comps[jp].coeffs += shifted
            else:
                g = out.comps.setdefault(jp, AngleFunction(u.nu, u.ell_max))
                g.coeffs += shifted
    return out


def _shift_coeffs(coeffs, ell, ell_max):
    """Shift a dense angle-coefficient array by ell, truncating to the box."""
    out = np.zeros_like(coeffs)
    src = []
    dst = []
    for off, L in zip(ell, [ell_max] * len(ell)):
        n = 2 * L + 1
        lo_src = max(0, -off)
        hi_src = min(n, n - off)
        src.append(slice(lo_src, hi_src))
        dst.append(slice(lo_src + off, hi_src + off))
    out[tuple(dst)] = coeffs[tuple(src)]
    return out


# ---------------------------------------------------------------------------
# Multipliers as a list of per-cluster angle series (formerly
# wavekam.multiplier, verbatim), and the test-only members that left it:
# FourierMultiplier.coeff and PairedMultiplier.copy
# ---------------------------------------------------------------------------


def multiplier_coeff(r, ell, alpha_sq):
    """Coefficient of r at (ell, alpha^2) (formerly FourierMultiplier.coeff)."""
    i = r.lattice.alpha_sqs.index(int(alpha_sq))
    return complex(r.row(i)[ell])


def paired_copy(p):
    """Deep copy of a paired multiplier (formerly PairedMultiplier.copy)."""
    return type(p)(p.r1.copy(), p.r2.copy())


def from_array(r):
    """The list-of-parts oracle of an array multiplier, with copied rows."""
    return FourierMultiplier(r.lattice, r.nu, r.ell_max, r.order,
                             [r.row(i).copy() for i in range(len(r.coeffs))])


def to_array(r):
    """(n_clusters, (2L+1)^nu) coefficient array of a list-of-parts multiplier."""
    return np.stack([p.coeffs.ravel() for p in r.parts])


class FourierMultiplier:
    """Symbol table: one truncated angle series per cluster, plus an order tag."""

    __slots__ = ("lattice", "nu", "ell_max", "order", "parts")

    def __init__(self, lattice, nu, ell_max, order=0.0, parts=None):
        self.lattice = lattice
        self.nu = int(nu)
        self.ell_max = int(ell_max)
        self.order = float(order)
        if parts is None:
            self.parts = [
                AngleFunction(self.nu, self.ell_max) for _ in lattice.clusters
            ]
        else:
            if len(parts) != len(lattice.clusters):
                raise ParameterError("one angle series per cluster required")
            self.parts = list(parts)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, lattice, nu, ell_max, order=0.0):
        return cls(lattice, nu, ell_max, order)

    @classmethod
    def from_alpha_symbol(cls, lattice, nu, ell_max, fn, order=0.0):
        """phi-independent symbol alpha -> fn(alpha)."""
        out = cls(lattice, nu, ell_max, order)
        for i, c in enumerate(lattice.clusters):
            out.parts[i] = AngleFunction.constant(nu, ell_max, fn(c.alpha))
        return out

    @classmethod
    def from_angle_function(cls, lattice, g, order=0.0):
        """alpha-independent symbol r(phi, alpha) = g(phi)."""
        out = cls(lattice, g.nu, g.ell_max, order)
        out.parts = [g.copy() for _ in lattice.clusters]
        return out

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        return cls.from_alpha_symbol(lattice, nu, ell_max, lambda a: 1.0, order=0.0)

    def coeff(self, ell, alpha_sq):
        i = self.lattice.alpha_sqs.index(int(alpha_sq))
        return complex(self.parts[i][ell])

    def copy(self, order=None):
        return FourierMultiplier(
            self.lattice,
            self.nu,
            self.ell_max,
            self.order if order is None else order,
            [p.copy() for p in self.parts],
        )

    def _check(self, other):
        if self.lattice != other.lattice or self.ell_max != other.ell_max:
            raise ParameterError("multiplier truncation mismatch")

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        return FourierMultiplier(
            self.lattice,
            self.nu,
            self.ell_max,
            max(self.order, other.order),
            [a + b for a, b in zip(self.parts, other.parts)],
        )

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        return FourierMultiplier(
            self.lattice, self.nu, self.ell_max, self.order,
            [p * scalar for p in self.parts],
        )

    __rmul__ = __mul__

    def conj(self):
        return FourierMultiplier(
            self.lattice, self.nu, self.ell_max, self.order,
            [p.conj() for p in self.parts],
        )

    def is_real_symbol(self, tol=1e-13):
        return all(p.is_real(tol) for p in self.parts)

    def omega_dphi(self, omega):
        return FourierMultiplier(
            self.lattice, self.nu, self.ell_max, self.order,
            [p.omega_dphi(omega) for p in self.parts],
        )

    def mean_per_cluster(self):
        return np.array([p.mean() for p in self.parts])

    def map_pointwise(self, fn, grid_n, order):
        """Apply a scalar function to the symbol on a grid_n^nu phi-grid and
        re-project to a multiplier of the given order.

        Returns (multiplier, alias mass).
        """
        out = FourierMultiplier(self.lattice, self.nu, self.ell_max, order)
        alias = 0.0
        for i, p in enumerate(self.parts):
            vals = fn(p.sample(grid_n))
            g, a = AngleFunction.from_samples(vals, self.ell_max)
            out.parts[i] = g
            alias = max(alias, a)
        return out, alias

    # -- norms -----------------------------------------------------------------
    def norm(self, m=None, s=0.0):
        m = self.order if m is None else m
        best = 0.0
        for c, p in zip(self.lattice.clusters, self.parts):
            best = max(best, p.sobolev_norm(s) * c.alpha ** (-m))
        return best

    # -- action ----------------------------------------------------------------
    def apply(self, u):
        """Op(r) u: per cluster of each space mode, ell-convolution."""
        out = SpaceTimeFunction(u.nu, u.ell_max, u.d)
        for j in u.space_modes():
            a_sq = self.lattice.cluster_of_point.get(j)
            if a_sq is None:
                continue
            i = self.lattice.alpha_sqs.index(a_sq)
            prod, _ = u.angle_part(j).product(self.parts[i])
            out.comps[j] = prod
        return out

    def to_blocks(self):
        blocks = {}
        for c, p in zip(self.lattice.clusters, self.parts):
            eye = np.eye(c.n_alpha, dtype=complex)
            for ell, v in p.modes():
                blocks[(ell, c.alpha_sq, c.alpha_sq)] = v * eye
        return BlockOperator(self.lattice, self.nu, self.ell_max, blocks)

    def to_rows(self):
        rows = []
        for c, p in zip(self.lattice.clusters, self.parts):
            for ell, v in p.modes():
                rows.append(
                    (list(ell), c.alpha_sq, float(v.real), float(v.imag), self.order)
                )
        return rows


def multiplier_norm(r, m, s):
    """|||Op(r)|||_{m,s} = sup_alpha ||r(., alpha)||_s alpha^{-m}."""
    return r.norm(m=m, s=s)


def multiplier_compose(r, b):
    """Op(r) Op(b) = Op(rb), orders add, symbols ell-convolve per cluster."""
    r._check(b)
    parts = []
    for pr, pb in zip(r.parts, b.parts):
        prod, _ = pr.product(pb)
        parts.append(prod)
    return FourierMultiplier(
        r.lattice, r.nu, r.ell_max, r.order + b.order, parts
    )


def multiplier_to_blocks(r):
    return r.to_blocks()


class PairedMultiplier:
    """Top row (r1, r2) of the multiplier arrangement (Op r1, Op r2; conj row)."""

    __slots__ = ("r1", "r2", "meta")

    def __init__(self, r1, r2):
        r1._check(r2)
        self.r1 = r1
        self.r2 = r2
        self.meta = {}

    @classmethod
    def zero(cls, lattice, nu, ell_max, order=0.0):
        return cls(
            FourierMultiplier.zero(lattice, nu, ell_max, order),
            FourierMultiplier.zero(lattice, nu, ell_max, order),
        )

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        return cls(
            FourierMultiplier.identity(lattice, nu, ell_max),
            FourierMultiplier.zero(lattice, nu, ell_max),
        )

    @classmethod
    def diagonal(cls, r):
        return cls(r, FourierMultiplier.zero(r.lattice, r.nu, r.ell_max, r.order))

    @property
    def lattice(self):
        return self.r1.lattice

    def copy(self):
        return PairedMultiplier(self.r1.copy(), self.r2.copy())

    def __add__(self, other):
        return PairedMultiplier(self.r1 + other.r1, self.r2 + other.r2)

    def __sub__(self, other):
        return PairedMultiplier(self.r1 - other.r1, self.r2 - other.r2)

    def __mul__(self, scalar):
        if isinstance(scalar, complex) and scalar.imag != 0:
            raise ParameterError("non-real scaling breaks the conjugate row")
        return PairedMultiplier(self.r1 * scalar, self.r2 * scalar)

    __rmul__ = __mul__

    def compose(self, other):
        a = multiplier_compose(self.r1, other.r1) + multiplier_compose(
            self.r2, other.r2.conj()
        )
        b = multiplier_compose(self.r1, other.r2) + multiplier_compose(
            self.r2, other.r1.conj()
        )
        return PairedMultiplier(a, b)

    def transpose(self):
        return PairedMultiplier(self.r1.copy(), self.r2.conj())

    def omega_dphi(self, omega):
        return PairedMultiplier(self.r1.omega_dphi(omega), self.r2.omega_dphi(omega))

    def norm(self, m, s):
        return self.r1.norm(m=m, s=s) + self.r2.norm(m=m, s=s)

    def is_hamiltonian(self, tol=1e-12):
        """r1* = -r1 (symbols: conj r1 = -r1) and r2 symmetric (automatic)."""
        res = (self.r1.conj() + self.r1).norm(m=0.0, s=0.0)
        scale = max(self.r1.norm(m=0.0, s=0.0), 1.0)
        return res <= tol * scale

    def to_paired_blocks(self):
        return PairedBlockOperator(self.r1.to_blocks(), self.r2.to_blocks())


def multiplier_exponential(psi, tol=1e-16, max_terms=60, s0=None):
    """exp(Psi) for a paired multiplier, with the order >= 2 tail.

    Returns (Phi, Phi_ge2) with Phi_ge2 = sum_{k>=2} Psi^k / k! of order 2m.
    The smallness hypothesis |||Psi|||_{-m, s0} <= 1 is a warning flag, not
    an error; divergence past ``max_terms`` raises DivergenceError.
    """
    m = psi.r1.order
    nrm = psi.norm(m, 0.0 if s0 is None else s0)
    ge2 = truncated_series(
        psi, lambda t, k: t.compose(psi) * (1.0 / k), tol, max_terms,
        norm=lambda t: t.norm(0.0, 0.0), rate=lambda k: nrm / k, bound=nrm, k0=1,
        total=PairedMultiplier.zero(psi.lattice, psi.r1.nu, psi.r1.ell_max),
        name=f"multiplier exponential series (|Psi| = {nrm:.3e})")
    phi = PairedMultiplier.identity(psi.lattice, psi.r1.nu, psi.r1.ell_max) + psi + ge2
    phi.meta["size_warning"] = bool(nrm > 1.0)
    ge2.r1.order = ge2.r2.order = 2 * m
    return phi, ge2


# ---------------------------------------------------------------------------
# Frozen-angle evaluation with complex phases (formerly AngleFunction.eval_at)
# ---------------------------------------------------------------------------


def eval_at_complex_phase(f, points):
    """``AngleFunction.eval_at`` as it was: ``1j * points @ ells.T`` parses as
    ``(1j * points) @ ells.T``, a complex-by-int product per call."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    flat = f.coeffs.ravel()
    nz = np.flatnonzero(flat)
    ells = ell_table(f.nu, f.ell_max)[0][nz]
    return np.exp(1j * points @ ells.T) @ flat[nz]


# ---------------------------------------------------------------------------
# Paired multiplier product with every factor (formerly
# PairedMultiplier.compose)
# ---------------------------------------------------------------------------


def paired_multiplier_compose_every_product(self, other):
    """All four ``multiplier.multiplier_compose`` products, zero factors
    included."""
    mc = multiplier.multiplier_compose
    a = mc(self.r1, other.r1) + mc(self.r2, other.r2.conj())
    b = mc(self.r1, other.r2) + mc(self.r2, other.r1.conj())
    return multiplier.PairedMultiplier(a, b)


# ---------------------------------------------------------------------------
# Test-only helpers (formerly SpectralLattice.vector, EigenData.from_blocks
# and SylvesterOperator.denominators)
# ---------------------------------------------------------------------------


def lattice_vector(lattice, coeffs):
    """Flat vector of a dict j -> complex over lattice points."""
    out = np.zeros(len(lattice.points), dtype=complex)
    for j, v in coeffs.items():
        out[lattice.index[j]] = v
    return out


def eigen_from_blocks(lattice, d_blocks, m=1.0):
    """EigenData of the eigenvalues of Hermitian cluster blocks."""
    return EigenData(lattice, {a: np.linalg.eigvalsh(mat)
                               for a, mat in d_blocks.items()}, m)


def sylvester_denominators(syl):
    """The (n_a, n_b) table omega.ell + lambda_k -+ mu_j of a block."""
    la, _, lb, _ = syl.eig()
    return syl.omega_ell + _combo_grid(la, lb, syl.sign)
