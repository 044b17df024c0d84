"""End-to-end dynamics: direct evolution, reduced flow, conjugacy, stability.

The original first-order system

    dv/dt = psi,   dpsi/dt = (1 + eps a(omega t)) Lap v + eps R(omega t)[v]

is integrated on the Fourier truncation with classical RK4 (frozen
coefficients at the stage times); the accuracy oracle is step-doubling
self-convergence, not symplecticity, because the check is norm boundedness of
a non-autonomous flow.  The reduced flow is exact per cluster through the
Hermitian eigendecomposition, hence unitary.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import blockop
from .errors import ParameterError
from .spectrum import _at_angles, ell_table

__all__ = [
    "EvolutionRun",
    "evolve_original",
    "evolve_reduced",
    "stability_check",
    "ConjugationChain",
    "conjugacy_roundtrip",
]


@dataclass
class EvolutionRun:
    times: np.ndarray
    norm_v: np.ndarray
    norm_psi: np.ndarray
    s: float


def _space_norms(rows, points, s):
    """H^s norm of each row over ``points``: terms |j|^(2s) abs(v)^2 on NumPy
    scalars, summed exactly (math.fsum), so zeros and order do not matter."""
    w = [math.sqrt(sum(x * x for x in j)) ** (2.0 * s) for j in points]
    return np.array([math.sqrt(math.fsum([c * abs(v) ** 2
                                          for c, v in zip(w, row)]))
                     for row in rows])


# steps per block: a block ends after _BLOCK_STEPS steps or at a sample
_BLOCK_STEPS = 64
# steps per table: the forcing and the step maps of whole blocks of up to
# _TABLE_STEPS steps are formed at once, so their memory does not grow with
# the horizon
_TABLE_STEPS = 256


def _rk4_increments(h, l1, lm, l4):
    """E with I + E the RK4 map of y' = (0 I; L 0) y over one step of length
    h, for stacks of L at the step's start, middle and end: (..., 2k, 2k)."""
    h = h.reshape((-1,) + (1,) * (l1.ndim - 1))
    a = h / 2
    p1, p2 = lm @ l1, l4 @ lm
    e11 = h / 6 * (2 * a * (l1 + lm) + h * (lm + a * a * p1))
    e12 = h * np.eye(l1.shape[-1]) + h / 6 * (2 * a * a + h * a) * lm
    e21 = h / 6 * (l1 + 4 * lm + 2 * a * a * p1 + l4 + h * a * p2)
    e22 = h / 6 * (4 * a * lm + h * (l4 + a * a * p2))
    return np.block([[e11, e12], [e21, e22]])


def _chain(e):
    """F with I + F = (I + e[-1]) ... (I + e[0]) along the first axis,
    multiplied pairwise as (I + b)(I + a) = I + a + b + b a so the increments
    keep their low bits."""
    while len(e) > 1:
        a, b = e[0:-1:2], e[1::2]
        e = np.concatenate([a + b + b @ a, e[2 * len(b):]])
    return e[0]


def evolve_original(problem, omega, v0, psi0, horizon, dt, n_samples=33):
    """RK4 trajectory of the first-order system on the Fourier truncation.

    v0, psi0: dicts j -> complex (zero-average x-data).  dt must resolve the
    forcing and the largest retained spatial frequency: dt <= 0.5/(|omega| +
    j_max).  Returns (times, states): the sample times and, per time, the
    state (v; psi) as one row of length 2n over ``lattice.points``.

    The state lives on the initial modes and, when eps != 0, on the x-support
    of every b_k, c_k.  This set is closed under the flow: Lap and a(omega t)
    are diagonal, and the rank forcing b_k <c_k, v> + c_k <b_k, v> reads and
    writes only the coupled set C of modes with nonzero rank columns (empty
    when eps = 0).  Every other mode is a Hill equation
    v'' = -(1 + eps a(omega t)) |j|^2 v.  Blocks of steps end after
    ``_BLOCK_STEPS`` steps or at a sample; a table holds whole blocks, up to
    ``_TABLE_STEPS`` steps.  Per table, the forcing is tabulated at the stage
    times and each step's RK4 map I + E is formed in closed form (one
    (2|C|, 2|C|) matrix, one 2 x 2 per distinct |j|^2 of the other modes);
    the blocks of one length are multiplied pairwise in that increment form
    together, and each block is applied once as y <- y + E y.  A step costs
    O(|C|^3 + n); a table's (steps, 2|C|, 2|C|) stack fits
    ``blockop._CHUNK_BYTES``.  The states agree with the stage-by-stage
    vector RK4 to rounding; the sampled times are its floats.
    """
    omega = np.asarray(omega, dtype=float)
    cfl = 0.5 / (float(np.linalg.norm(omega)) + problem.j_max)
    if dt > cfl:
        raise ParameterError(f"dt = {dt:.3e} violates the step bound {cfl:.3e}")
    eps = problem.epsilon
    pairs = problem.rank_pairs if eps else []
    modes = sorted(set(v0).union(psi0, *(f.space_modes() for pair in pairs for f in pair)))
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
    table_steps = min(_TABLE_STEPS,
                      max(1, blockop._CHUNK_BYTES // (64 * max(k, 1) ** 2)))
    block_steps = min(_BLOCK_STEPS, table_steps)
    # the other modes' Hill maps, one per distinct |j|^2
    nsq_hill, hill = np.unique(nsq[single], return_inverse=True)

    n_steps = int(math.ceil(horizon / dt))
    sample_every = max(1, n_steps // max(1, n_samples - 1))
    t, times, rows = 0.0, [0.0], [y.copy()]
    yc, ys = np.r_[coupled, n + coupled], np.c_[single, n + single]
    k0 = 0
    while k0 < n_steps:
        # the table's block ends, cut after block_steps steps and at samples
        ends = [k0]
        while ends[-1] < n_steps:
            k1 = min(ends[-1] + block_steps, n_steps,
                     (ends[-1] // sample_every + 1) * sample_every)
            if k1 - k0 > table_steps:
                break
            ends.append(k1)
        # stage times t_k, t_k + h_k / 2, t_k + h_k = t_(k+1) of the table
        hs, stage_t = [], [t]
        for _ in range(ends[-1] - k0):
            tk = stage_t[-1]
            hs.append(min(dt, horizon - tk))
            stage_t += [tk + hs[-1] / 2, tk + hs[-1]]
        hs = np.asarray(hs)
        vals = _at_angles(np.asarray(stage_t)[:, None] * omega, ells, coef)
        # L's diagonal is lin |j|^2 on each mode
        lin = -(1.0 + eps * vals[:, :1].real)
        # rows of u: eps b_k, eps c_k on C; of w: c_k, b_k at -j
        u, w = np.moveaxis(
            vals[:, 1:].reshape(len(stage_t), 2, 2 * len(pairs), k), 1, 0)
        big = eps * np.swapaxes(u, 1, 2) @ w
        big[:, range(k), range(k)] += lin * nsq[coupled]
        small = (lin * nsq_hill)[:, :, None, None]
        starts, lens = np.array(ends[:-1]) - k0, np.diff(ends)
        groups = []
        for ls, idx, take in ((big, yc, slice(None)), (small, ys, hill)):
            if len(idx):
                e = _rk4_increments(hs, ls[0:-1:2], ls[1::2], ls[2::2])
                # one map per block; the blocks of one length chain together
                maps = np.empty((len(lens),) + e.shape[1:], dtype=complex)
                for m in np.unique(lens):
                    at = np.flatnonzero(lens == m)
                    maps[at] = _chain(e[starts[at] + np.arange(m)[:, None]])
                groups.append((maps[:, take], idx))
        for b, k1 in enumerate(ends[1:]):
            for maps, idx in groups:
                y[idx] += (maps[b] @ y[idx][..., None])[..., 0]
            if k1 % sample_every == 0 or k1 == n_steps:
                times.append(stage_t[2 * (k1 - k0)])
                rows.append(y.copy())
        t, k0 = stage_t[-1], ends[-1]
    cols = np.array([lat.index[j] for j in modes], dtype=int)
    states = np.zeros((len(rows), 2 * lat.n_points), dtype=complex)
    states[:, np.r_[cols, lat.n_points + cols]] = rows
    return np.array(times), states


def run_norms(times, states, lattice, s):
    """The H^(s+1/2) norm of v and the H^(s-1/2) norm of psi per sample."""
    n, pts = lattice.n_points, lattice.points
    return EvolutionRun(np.asarray(times),
                        _space_norms(states[:, :n], pts, s + 0.5),
                        _space_norms(states[:, n:], pts, s - 0.5), s)


def evolve_reduced(d_blocks, lattice, u0, times, t0=0.0):
    """Exact reduced evolution du/dt = -i D^(1) u per cluster on flat vectors.

    u0: length-n vector over ``lattice.points``.  Returns the (len(times), n)
    array of u(t), propagated from t0; a cluster where u0 vanishes stays 0
    and needs no block.
    """
    out = np.zeros((len(times), lattice.n_points), dtype=complex)
    for a_sq, sl in lattice.slices.items():
        if not np.any(u0[sl]):
            continue
        lam, u = np.linalg.eigh(np.asarray(d_blocks[a_sq]))
        y0 = u.conj().T @ u0[sl]
        for row, t in zip(out, times):
            row[sl] = u @ (np.exp(-1j * lam * (t - t0)) * y0)
    return out


def reduced_norm_drift(snapshots, lattice, s):
    """max_t | |u(t)|_s - |u(0)|_s | over the rows of ``snapshots``."""
    norms = _space_norms(snapshots, lattice.points, s)
    return float(np.max(np.abs(norms - norms[0]))) if len(norms) else 0.0


def stability_check(run, ceiling=10.0):
    """sup_t of the norm ratio against the initial data of an EvolutionRun."""
    n0 = run.norm_v[0] + run.norm_psi[0]
    if n0 == 0:
        raise ParameterError("zero initial data")
    sup = float(np.max((run.norm_v + run.norm_psi) / n0))
    return {"sup_ratio": sup, "bounded": sup < ceiling}


# the complexification C and its inverse on one point; W1 uses kron(C, I_n)
_C = 2.0 ** (-0.5) * np.array([[1.0, 1.0], [-1j, 1j]])
_C_INV = 2.0 ** (-0.5) * np.array([[1.0, 1j], [1.0, -1j]])


class ConjugationChain:
    """W_infty(phi) = W1(phi) o A o W2(phi) as matrices over the flat index.

    W1 = S(phi) C, W2 = T(phi) Phi_inf(phi); the time reparametrization A
    enters through tau(t) = t + alpha(omega t).  A state is one vector
    (top; bottom) of length 2n over ``lattice.points``, (v; psi) on the
    original side and (u1; u2) on the reduced side.
    """

    def __init__(self, problem, omega, reg_result, kam_state=None):
        self.problem = problem
        self.omega = np.asarray(omega, dtype=float)
        self.reg = reg_result
        self.kam_state = kam_state
        # the factors of W2 and of its inverse, leftmost first
        kam = [] if kam_state is None else [kam_state.accumulated]
        self._w2 = [reg_result.t_fwd.to_paired_blocks()] + [
            k.forward for k in kam]
        self._w2_inv = [k.inverse for k in kam] + [
            reg_result.t_bwd.to_paired_blocks()]
        self._root = np.array(
            [sum(x * x for x in j) ** 0.25 for j in problem.lattice.points])

    def tau_of_t(self, times):
        """tau = t + alpha(omega t) at each of ``times``."""
        times = np.asarray(times, dtype=float)
        return times + self.reg.stage3.alpha_fn.eval_at(
            np.outer(times, self.omega)).real

    def w2(self, taus, inverse=False):
        """W2(omega tau), or W2^{-1}, for each tau: (2n, 2n) matrices, built
        a chunk of taus at a time so a stack fits blockop._CHUNK_BYTES."""
        step = max(1, blockop._CHUNK_BYTES // (16 * (2 * len(self._root)) ** 2))
        for lo in range(0, len(taus), step):
            phis = np.outer(taus[lo:lo + step], self.omega)
            out = None
            for op in self._w2_inv if inverse else self._w2:
                mat = op.matrix_at_phi(phis)
                out = mat if out is None else out @ mat
            del mat  # copies, so no matrix held keeps its chunk alive
            yield from map(np.copy, out)

    def w1(self, times, inverse=False):
        """S(omega t) C, or C^{-1} S(omega t)^{-1}, at each of ``times`` as
        (scales, K): the matrix is scales[i][:, None] * K, or K * scales[i]
        for the inverse, with K = kron(C, I_n), or kron(C^{-1}, I_n).

        S = diag(beta |j|^-1/2, beta_inv |j|^1/2) with beta_inv the
        pipeline's own series for 1/beta.
        """
        phis = np.outer(times, self.omega)
        beta, binv = (f.eval_at(phis).real[:, None]
                      for f in (self.reg.stage1.beta, self.reg.stage1.beta_inv))
        halves = [binv * self._root, beta / self._root]
        return (np.concatenate(halves if inverse else halves[::-1], axis=1),
                np.kron(_C_INV if inverse else _C, np.eye(len(self._root))))

    def solutions_from_reduced(self, u0, times):
        """(v; psi)(t) for t in times, shape (m, 2n), built from reduced data
        u(tau) at tau = t + alpha(omega t), with one reduced-flow
        diagonalisation; tau and S(omega t) are evaluated at all times at
        once.

        u0 (length n) is the reduced initial datum at tau0 = tau(0).
        """
        lat = self.problem.lattice
        taus = self.tau_of_t(times)
        d_blocks = (
            self.kam_state.d_blocks
            if self.kam_state is not None
            else self.reg.d_blocks(lat)
        )
        u = evolve_reduced(d_blocks, lat, u0, taus, t0=self.tau_of_t([0.0])[0])
        out = np.concatenate([u, np.conj(u[:, lat.neg_perm])], axis=1)
        del u
        scales, kron = self.w1(times)
        # each row is read before it is overwritten by its solution
        for row, scale, w2 in zip(out, scales, self.w2(taus)):
            row[:] = scale * (kron @ (w2 @ row))
        return out

    def initial_reduced_data(self, x0):
        """(u1; u2) at tau0 from (v; psi)(0) through the inverse chain."""
        [w2_inv] = self.w2(self.tau_of_t([0.0]), inverse=True)
        [scale], kron = self.w1([0.0], inverse=True)
        return w2_inv @ (kron @ (scale * x0))


def conjugacy_roundtrip(chain, times, x):
    """Relative deviation of the trajectory x (``evolve_original``'s states)
    from W_infty(omega t)[u(t)].

    Also reports the inverse-composition residual of the chain at t = 0.
    """
    lat = chain.problem.lattice
    n = lat.n_points

    def pair_norm(y):
        return np.linalg.norm(y[..., :n], axis=-1) + np.linalg.norm(
            y[..., n:], axis=-1)

    u = chain.initial_reduced_data(x[0])
    conj_residual = np.linalg.norm(u[n:] - np.conj(u[:n][lat.neg_perm]))
    scale = pair_norm(x[0])
    solved = chain.solutions_from_reduced(u[:n], times)
    # round-trip of the maps themselves at t = 0
    [w2] = chain.w2(chain.tau_of_t([0.0]))
    [w1_scale], kron = chain.w1([0.0])
    back = w1_scale * (kron @ (w2 @ u))
    return {
        "trajectory_residual": float(np.max(pair_norm(x - solved)) / scale),
        "inverse_residual": float(pair_norm(back - x[0]) / scale),
        "reality_residual": float(conj_residual),
    }
