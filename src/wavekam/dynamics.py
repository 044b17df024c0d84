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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

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
    dt: float
    scheme: str
    states: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def _space_norm(coeffs, s):
    acc = [
        (math.sqrt(sum(x * x for x in j)) ** (2.0 * s)) * abs(v) ** 2
        for j, v in coeffs.items()
    ]
    return math.sqrt(math.fsum(acc))


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


def evolve_original(problem, omega, v0, psi0, horizon, dt, n_samples=33,
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


def run_norms(times, v_maps, psi_maps, s):
    nv = np.array([_space_norm(m, s + 0.5) for m in v_maps])
    npsi = np.array([_space_norm(m, s - 0.5) for m in psi_maps])
    return EvolutionRun(
        times=np.asarray(times), norm_v=nv, norm_psi=npsi, s=s, dt=0.0,
        scheme="rk4",
    )


def evolve_reduced(d_blocks, lattice, u0, times, t0=0.0):
    """Exact reduced evolution du/dt = -i D^(1) u per cluster.

    u0: dict j -> complex.  Returns the list of coefficient dicts at the
    requested times (propagated from t0) plus the per-time H^s drift check
    data.
    """
    by_cluster = {}
    for j, v in u0.items():
        a_sq = lattice.cluster_of_point[tuple(j)]
        by_cluster.setdefault(a_sq, {})[tuple(j)] = v
    evo = {}
    for a_sq, comp in by_cluster.items():
        cl = lattice.cluster(a_sq)
        vec = np.zeros(cl.n_alpha, dtype=complex)
        for j, v in comp.items():
            vec[cl.index_of[j]] = v
        lam, u = np.linalg.eigh(np.asarray(d_blocks[a_sq]))
        evo[a_sq] = (cl, lam, u, u.conj().T @ vec)
    out = []
    for t in np.atleast_1d(times):
        coeffs = {}
        for a_sq, (cl, lam, u, y0) in evo.items():
            vec = u @ (np.exp(-1j * lam * (t - t0)) * y0)
            for j, i in cl.index_of.items():
                if vec[i] != 0:
                    coeffs[j] = vec[i]
        out.append(coeffs)
    return out


def reduced_norm_drift(snapshots, s):
    norms = [_space_norm(c, s) for c in snapshots]
    base = norms[0] if norms else 0.0
    return max(abs(n - base) for n in norms) if norms else 0.0


def stability_check(times, v_maps, psi_maps, s, ceiling=10.0):
    """sup_t norm ratio against the initial data, with the growth curve."""
    n0 = _space_norm(v_maps[0], s + 0.5) + _space_norm(psi_maps[0], s - 0.5)
    if n0 == 0:
        raise ParameterError("zero initial data")
    curve = np.array(
        [
            (_space_norm(v, s + 0.5) + _space_norm(p, s - 0.5)) / n0
            for v, p in zip(v_maps, psi_maps)
        ]
    )
    return {
        "sup_ratio": float(np.max(curve)),
        "bounded": bool(np.max(curve) < ceiling),
        "curve": curve,
        "times": np.asarray(times),
    }


class ConjugationChain:
    """W_infty(phi) = W1(phi) o A o W2(phi) evaluated on x-coefficients.

    W1 = S(phi) C, W2 = T(phi) Phi_inf(phi); the time reparametrization A
    enters through tau(t) = t + alpha(omega t).
    """

    def __init__(self, problem, omega, reg_result, kam_state=None):
        self.problem = problem
        self.omega = np.asarray(omega, dtype=float)
        self.reg = reg_result
        self.kam_state = kam_state

    def tau_of_t(self, t):
        phi = (self.omega * t).reshape(1, -1)
        return t + float(self.reg.stage3.alpha_fn.eval_at(phi).real[0])

    def w2_apply(self, c1, c2, phi):
        """W2 = T Phi_inf at frozen angle (Phi_inf optional)."""
        if self.kam_state is not None:
            c1, c2 = self.kam_state.accumulated.forward.apply_pair_at_phi(
                c1, c2, phi
            )
        return self.reg.t_fwd.apply_pair_at_phi(c1, c2, phi)

    def w2_inverse_apply(self, c1, c2, phi):
        c1, c2 = self.reg.t_bwd.apply_pair_at_phi(c1, c2, phi)
        if self.kam_state is not None:
            c1, c2 = self.kam_state.accumulated.inverse.apply_pair_at_phi(
                c1, c2, phi
            )
        return c1, c2

    def w1_apply(self, c1, c2, phi):
        """(v, psi) = S(phi) C [(u1, u2)] on x-coefficients."""
        s = 2.0 ** (-0.5)
        beta_val = float(self.reg.stage1.beta.eval_at(phi.reshape(1, -1)).real[0])
        binv_val = float(
            self.reg.stage1.beta_inv.eval_at(phi.reshape(1, -1)).real[0]
        )
        v, p = {}, {}
        for j in set(c1) | set(c2):
            nj = math.sqrt(sum(x * x for x in j))
            u1 = c1.get(j, 0j)
            u2 = c2.get(j, 0j)
            cv = s * (u1 + u2)
            cp = s * (-1j * u1 + 1j * u2)
            v[j] = beta_val * nj ** (-0.5) * cv
            p[j] = binv_val * nj**0.5 * cp
        return v, p

    def w1_inverse_apply(self, v, p, phi):
        s = 2.0 ** (-0.5)
        beta_val = float(self.reg.stage1.beta.eval_at(phi.reshape(1, -1)).real[0])
        binv_val = float(
            self.reg.stage1.beta_inv.eval_at(phi.reshape(1, -1)).real[0]
        )
        c1, c2 = {}, {}
        for j in set(v) | set(p):
            nj = math.sqrt(sum(x * x for x in j))
            su = binv_val * nj**0.5 * v.get(j, 0j)
            sp = beta_val * nj ** (-0.5) * p.get(j, 0j)
            c1[j] = s * (su + 1j * sp)
            c2[j] = s * (su - 1j * sp)
        return c1, c2

    def solution_from_reduced(self, u0, t):
        """(v, psi)(t) built from reduced data u(tau) at tau = t + alpha(omega t).

        u0 is the reduced initial datum at tau0 = tau_of_t(0).
        """
        tau0 = self.tau_of_t(0.0)
        tau = self.tau_of_t(t)
        d_blocks = (
            self.kam_state.d_blocks
            if self.kam_state is not None
            else self.reg.d_blocks(self.problem.lattice)
        )
        (u_tau,) = evolve_reduced(
            d_blocks, self.problem.lattice, u0, [tau], t0=tau0
        )
        u_conj = {tuple(-x for x in j): np.conj(v) for j, v in u_tau.items()}
        phi_tau = self.omega * tau
        h1, h2 = self.w2_apply(u_tau, u_conj, phi_tau)
        return self.w1_apply(h1, h2, self.omega * t)

    def initial_reduced_data(self, v0, psi0):
        """u at tau0 from (v, psi)(0) through the inverse chain."""
        tau0 = self.tau_of_t(0.0)
        c1, c2 = self.w1_inverse_apply(v0, psi0, self.omega * 0.0)
        u1, u2 = self.w2_inverse_apply(c1, c2, self.omega * tau0)
        return u1, u2


def conjugacy_roundtrip(chain, times, v_maps, psi_maps):
    """Relative deviation of the trajectory from W_infty(omega t)[u(t)].

    Also reports the inverse-composition residual of the chain at t = 0.
    """
    v0, p0 = v_maps[0], psi_maps[0]
    u1, u2 = chain.initial_reduced_data(v0, p0)
    conj_residual = _pair_residual(
        u2, {tuple(-x for x in j): np.conj(v) for j, v in u1.items()}
    )
    worst = 0.0
    scale = _space_norm(v0, 0.0) + _space_norm(p0, 0.0)
    for t, vm, pm in zip(times, v_maps, psi_maps):
        vv, pp = chain.solution_from_reduced(u1, t)
        err = _pair_residual(vm, vv) + _pair_residual(pm, pp)
        worst = max(worst, err / scale)
    # round-trip of the maps themselves at t = 0
    c1, c2 = chain.w1_inverse_apply(v0, p0, chain.omega * 0.0)
    tau0 = chain.tau_of_t(0.0)
    h1, h2 = chain.w2_inverse_apply(c1, c2, chain.omega * tau0)
    b1, b2 = chain.w2_apply(h1, h2, chain.omega * tau0)
    r1, r2 = chain.w1_apply(b1, b2, chain.omega * 0.0)
    inv_residual = (_pair_residual(r1, v0) + _pair_residual(r2, p0)) / scale
    return {
        "trajectory_residual": worst,
        "inverse_residual": inv_residual,
        "reality_residual": conj_residual,
    }


def _pair_residual(a, b):
    keys = set(a) | set(b)
    return math.sqrt(
        math.fsum(abs(a.get(j, 0j) - b.get(j, 0j)) ** 2 for j in keys)
    )
