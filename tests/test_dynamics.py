import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wavekam import AngleFunction, SpaceTimeFunction, blockop
from wavekam.cli import _add_conjugate_pair, build_problem, load_config
from wavekam.dynamics import (
    ConjugationChain,
    EvolutionRun,
    conjugacy_roundtrip,
    evolve_original,
    evolve_reduced,
    reduced_norm_drift,
    run_norms,
    stability_check,
)
from wavekam.errors import ParameterError
from wavekam.kam import KamConfig, kam_run
from wavekam.regularization import WaveProblem, run_pipeline

from conftest import rng_for
from oracles import (evolve_original_dicts, evolve_original_stages,
                     lattice_vector)
from test_acceptance import desk_problem

# strongly non-resonant against the toy spectrum {1, sqrt 2, 2}
OMEGA = np.array([1.66991901, 1.54742436])
CONFIGS = Path(__file__).resolve().parents[1] / "src/wavekam/configs"


def cli_draw(problem, seed):
    """The (v0, psi0) that `wavekam run --seed` draws in its dynamics phase:
    4 random lattice points, real data on each and its negative."""
    rng = rng_for(seed, "dynamics-initial")
    pts = list(problem.lattice.all_points())
    v0, psi0 = {}, {}
    for k in rng.permutation(len(pts))[:4]:
        for coeffs in (v0, psi0):
            val = complex(rng.standard_normal(), rng.standard_normal()) * 0.3

            def add(j, v, coeffs=coeffs):
                coeffs[j] = coeffs.get(j, 0j) + v
            _add_conjugate_pair(add, val, pts[int(k)])
    return v0, psi0


def on_lattice(lattice, v_maps, psi_maps):
    """An oracle's per-sample dicts as evolve_original's (m, 2n) states."""
    return np.array([np.concatenate([lattice_vector(lattice, v),
                                     lattice_vector(lattice, p)])
                     for v, p in zip(v_maps, psi_maps)])


def every_point(problem):
    """Real initial data on every lattice point."""
    rng = rng_for("every-point", problem.lattice.n_points)
    v0 = {}
    for j in problem.lattice.points:
        neg = tuple(-x for x in j)
        v0[j] = np.conj(v0[neg]) if neg in v0 else complex(
            *rng.standard_normal(2))
    return v0


def rank_everywhere(eps, n_modes):
    """The desk problem with b, c on the first n_modes lattice points (and
    their negatives), so the coupled set C holds them all."""
    p = desk_problem(eps)
    pts = p.lattice.points[:n_modes]
    b = SpaceTimeFunction.from_modes(2, p.ell_max, 2, {
        (ell, tuple(s * x for x in j)): 0.5 / (1 + k)
        for k, j in enumerate(pts) for s, ell in ((1, (1, 0)), (-1, (-1, 0)))})
    c = SpaceTimeFunction.from_modes(2, p.ell_max, 2, {
        (ell, tuple(s * x for x in j)): 0.25
        for j in pts for s, ell in ((1, (0, 1)), (-1, (0, -1)))})
    p.rank_pairs = [(b, c)]
    return p


def make_problem(eps, **kw):
    nu, d, ell_max, j_max = 2, 2, 4, 2
    a = AngleFunction.cosine(nu, ell_max, (1, 0))
    b = SpaceTimeFunction.from_modes(nu, ell_max, d, {((1, 0), (1, 0)): 0.5,
                                                      ((-1, 0), (-1, 0)): 0.5})
    c = SpaceTimeFunction.from_modes(nu, ell_max, d, {((0, 1), (0, 1)): 0.5,
                                                      ((0, -1), (0, -1)): 0.5})
    defaults = dict(d=d, nu=nu, epsilon=eps, a=a, rank_pairs=[(b, c)],
                    j_max=j_max, ell_max=ell_max, q=8, M=3, gamma=0.01)
    defaults.update(kw)
    return WaveProblem(**defaults)


class TestEvolveOriginal:
    def test_eps_zero_single_mode_exact(self):
        # v0 = cos(j.x) evolves as cos(|j| t) cos(j.x); 10 periods
        p = make_problem(0.0)
        j = (1, 0)
        v0 = {j: 0.5, (-1, 0): 0.5}
        psi0 = {}
        horizon = 10 * 2 * math.pi
        times, states = evolve_original(
            p, OMEGA, v0, psi0, horizon, dt=0.005, n_samples=41
        )
        for t, x in zip(times, states[:, p.lattice.index[j]]):
            want = 0.5 * math.cos(t)
            assert x == pytest.approx(want, abs=1e-8)

    def test_eps_zero_norm_conserved_to_scheme_order(self):
        p = make_problem(0.0)
        v0 = {(1, 0): 0.5, (-1, 0): 0.5, (1, 1): 0.2, (-1, -1): 0.2}
        psi0 = {(0, 1): 0.3, (0, -1): 0.3}
        times, states = evolve_original(
            p, OMEGA, v0, psi0, 20.0, dt=0.005
        )
        lat = p.lattice
        nsq = np.array([float(sum(x * x for x in j)) for j in lat.points])
        n = lat.n_points

        def energy(x):
            return float(np.sum(nsq * np.abs(x[:n]) ** 2)
                         + np.sum(np.abs(x[n:]) ** 2))
        e0 = energy(states[0])
        for x in states:
            assert energy(x) == pytest.approx(e0, rel=1e-10)

    def test_self_convergence_order(self):
        # Richardson: halving dt shrinks the deviation by ~2^4
        p = make_problem(1e-2)
        v0 = {(1, 0): 0.5, (-1, 0): 0.5}
        psi0 = {(0, 1): 0.25, (0, -1): 0.25}
        horizon = 5.0
        outs = {}
        for dt in (0.02, 0.01, 0.005):
            _, states = evolve_original(
                p, OMEGA, v0, psi0, horizon, dt=dt, n_samples=2
            )
            outs[dt] = states[-1, :p.lattice.n_points]
        e1 = np.linalg.norm(outs[0.02] - outs[0.01])
        e2 = np.linalg.norm(outs[0.01] - outs[0.005])
        assert 8.0 <= e1 / e2 <= 32.0

    def test_cfl_violation(self):
        p = make_problem(0.0)
        with pytest.raises(ParameterError):
            evolve_original(p, OMEGA, {(1, 0): 1.0}, {}, 1.0, dt=1.0)

    def test_matches_dict_oracle(self):
        kirchhoff = build_problem(load_config(
            Path(__file__).resolve().parents[1]
            / "src/wavekam/configs/kirchhoff-lin.yaml"), 0)
        # the initial modes cover the rank support +-(1,0), +-(0,1)
        v0 = {(1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.1, (0, -1): 0.1}
        psi0 = {(1, 1): 0.2, (-1, -1): 0.2, (1, 0): 0.25j, (-1, 0): -0.25j}
        cases = [
            (kirchhoff, OMEGA, 4.0, 0.004),
            (desk_problem(1e-3), OMEGA, 5.0, 0.01),
            (desk_problem(1e-3), np.array([1.33294561, 1.80752905]), 5.0, 0.01),
            (desk_problem(0.0), OMEGA, 5.0, 0.01),
            (desk_problem(1e-3), OMEGA, 5.0037, 0.01),  # short last step
        ]
        for p, omega, horizon, dt in cases:
            times, got = evolve_original(p, omega, v0, psi0, horizon, dt)
            want = evolve_original_dicts(p, omega, v0, psi0, horizon, dt)
            assert times.tolist() == want[0]
            ref = on_lattice(p.lattice, want[1], want[2])
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(np.flatnonzero(got.any(axis=0)),
                                  np.flatnonzero(ref.any(axis=0)))

    def assert_matches_stages(self, p, omega, v0, psi0, horizon, dt,
                              n_samples=33):
        times, states = evolve_original(p, omega, v0, psi0, horizon, dt,
                                        n_samples)
        want = evolve_original_stages(p, omega, v0, psi0, horizon, dt,
                                      n_samples)
        assert times.tolist() == want[0]
        ref = on_lattice(p.lattice, want[1], want[2])
        assert states.shape == ref.shape
        assert np.max(np.abs(states - ref)) <= 1e-13 * np.max(np.abs(ref))
        return times, states

    @pytest.mark.parametrize("config", ["kirchhoff-lin", "eps0"])
    def test_matches_stage_oracle_on_cli_draw(self, config):
        # the modes and data of `wavekam run --seed 1`, at the config's dt
        p = build_problem(load_config(CONFIGS / f"{config}.yaml"), 1)
        v0, psi0 = cli_draw(p, 1)
        for omega in (OMEGA, np.array([1.33294561, 1.80752905])):
            self.assert_matches_stages(p, omega, v0, psi0, 8.0, 0.004)

    @pytest.mark.parametrize("horizon, n_samples", [
        (5.0, 33),
        (5.0037, 33),  # short last step
        (2.0, 1), (2.0, 2), (2.0, 33), (2.0, 129),
        (0.5, 129),  # more samples than steps: a block per step
    ])
    def test_matches_stage_oracle_on_every_desk_point(self, horizon,
                                                      n_samples):
        p = desk_problem(1e-3)
        v0 = every_point(p)
        times, states = self.assert_matches_stages(
            p, OMEGA, v0, {}, horizon, 0.01, n_samples)
        n = p.lattice.n_points
        assert np.count_nonzero(states[:, :n].any(axis=0)) == n == 112
        assert times[-1] == pytest.approx(horizon, abs=1e-12)

    def test_matches_stage_oracle_with_every_mode_coupled(self):
        p = rank_everywhere(1e-3, 24)
        self.assert_matches_stages(p, OMEGA, every_point(p), {}, 1.0, 0.01)

    def test_state_closed_under_rank_forcing(self):
        # initial modes miss +-(0, 1), where the rank pair's c lives: a run
        # holding every lattice mode from the start must give the same states
        p = build_problem(load_config(
            Path(__file__).resolve().parents[1]
            / "src/wavekam/configs/kirchhoff-lin.yaml"), 0)
        v0 = {(1, 0): 0.4, (-1, 0): 0.4}
        psi0 = {(1, 1): 0.2, (-1, -1): 0.2}
        zeros = {j: 0j for j in p.lattice.points}
        _, got = evolve_original(p, OMEGA, v0, psi0, 4.0, 0.004)
        _, want = evolve_original(
            p, OMEGA, {**zeros, **v0}, {**zeros, **psi0}, 4.0, 0.004)
        assert np.max(np.abs(got[:, p.lattice.index[(0, 1)]])) > 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_forcing_table_memory_independent_of_horizon(self):
        p = desk_problem(1e-3)
        v0 = {(1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.1, (0, -1): 0.1}
        peaks = []
        for horizon in (20.0, 200.0):
            tracemalloc.start()
            try:
                evolve_original(p, OMEGA, v0, {}, horizon, dt=0.01)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    def test_memory_against_stage_oracle(self):
        # every mode outside the rank support is a scalar equation: no
        # (steps, 2n, 2n) stack over all 112 points
        p = desk_problem(1e-3)
        v0 = every_point(p)
        peaks = []
        for evolve in (evolve_original, evolve_original_stages):
            tracemalloc.start()
            try:
                evolve(p, OMEGA, v0, {}, 20.0, dt=0.01)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2 * peaks[1]

    def test_coupled_block_fits_chunk(self, monkeypatch):
        # all 112 points coupled: 64 steps of (224, 224) would be 51 MB
        monkeypatch.setattr(blockop, "_CHUNK_BYTES", 2**21)
        p = rank_everywhere(1e-3, 112)
        v0 = every_point(p)
        tracemalloc.start()
        try:
            evolve_original(p, OMEGA, v0, {}, 0.7, dt=0.01, n_samples=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * blockop._CHUNK_BYTES


class TestEvolveReduced:
    def test_phase_rotation_1x1(self):
        from wavekam import enumerate_clusters

        lat = enumerate_clusters(2, 2)
        lam = 1.37
        blocks = {c.alpha_sq: lam * np.eye(c.n_alpha) for c in lat.clusters}
        u0 = lattice_vector(lat, {(1, 0): 1.0})
        snaps = evolve_reduced(blocks, lat, u0, [0.0, 0.5, 2.0])
        for t, snap in zip([0.0, 0.5, 2.0], snaps):
            assert snap[lat.index[(1, 0)]] == pytest.approx(
                np.exp(-1j * lam * t))

    def test_unitary_norm_drift(self):
        from wavekam import enumerate_clusters

        lat = enumerate_clusters(2, 2)
        rng = rng_for("reduced-unitary")
        blocks = {}
        for c in lat.clusters:
            m = rng.standard_normal((c.n_alpha, c.n_alpha)) \
                + 1j * rng.standard_normal((c.n_alpha, c.n_alpha))
            blocks[c.alpha_sq] = c.alpha * np.eye(c.n_alpha) + 0.01 * (m + m.conj().T)
        u0 = np.zeros(lat.n_points, dtype=complex)
        for k in rng.integers(0, lat.n_points, 5):
            u0[k] = complex(rng.standard_normal(), rng.standard_normal())
        times = np.linspace(0.0, 50.0, 21)
        snaps = evolve_reduced(blocks, lat, u0, times)
        for s in (0.0, 1.5):
            assert reduced_norm_drift(snaps, lat, s) <= 1e-12

    def test_t0_identity(self):
        from wavekam import enumerate_clusters

        lat = enumerate_clusters(2, 1)
        blocks = {1: np.eye(4)}
        u0 = lattice_vector(lat, {(1, 0): 0.7 + 0.1j, (0, 1): -0.2j})
        (snap,) = evolve_reduced(blocks, lat, u0, [3.0], t0=3.0)
        assert snap == pytest.approx(u0)


class TestStability:
    def test_eps_zero_ratio_bounded_by_one(self):
        p = make_problem(0.0)
        v0 = {(1, 0): 0.5, (-1, 0): 0.5}
        psi0 = {(1, 0): 0.5j, (-1, 0): -0.5j}
        times, states = evolve_original(p, OMEGA, v0, psi0, 30.0, dt=0.01)
        rep = stability_check(run_norms(times, states, p.lattice, s=1.0))
        assert rep["bounded"]
        assert rep["sup_ratio"] <= 1.0 + 1e-6

    def test_zero_data_rejected(self):
        zero = np.zeros(1)
        with pytest.raises(ParameterError):
            stability_check(EvolutionRun(zero, zero, zero, 1.0))

    def test_norms_match_per_mode_sums(self):
        # both series are the H^(s+1/2) and H^(s-1/2) norms over the
        # evolved modes, bit for bit: zeros off them add nothing
        p = make_problem(1e-2)
        v0 = {(1, 0): 0.5, (-1, 0): 0.5}
        psi0 = {(1, 1): 0.2j, (-1, -1): -0.2j}
        times, states = evolve_original(p, OMEGA, v0, psi0, 3.0, dt=0.01)
        run = run_norms(times, states, p.lattice, 1.0)
        lat, n = p.lattice, p.lattice.n_points
        modes = np.unique(np.flatnonzero(states.any(axis=0)) % n)
        for row, nv, npsi in zip(states, run.norm_v, run.norm_psi):
            for part, got, s in ((row[:n], nv, 1.5), (row[n:], npsi, 0.5)):
                want = math.sqrt(math.fsum(
                    math.sqrt(sum(x * x for x in lat.points[i])) ** (2 * s)
                    * abs(part[i]) ** 2 for i in modes))
                assert got == want


class TestConjugacy:
    def chain_for(self, eps, with_kam=True):
        p = make_problem(eps)
        res = run_pipeline(p, OMEGA)
        kam_state = None
        if with_kam:
            cfg = KamConfig(nu=2, d=2, gamma=p.gamma)
            out = kam_run(
                res.d_blocks(p.lattice), res.r4, OMEGA, p.lattice, cfg,
                compute_conjugation_residual=False,
            )
            assert out.converged, out.verdict
            kam_state = out.state
        return p, res, ConjugationChain(p, OMEGA, res, kam_state)

    def test_eps_zero_chain_reduces_to_rounding(self):
        p, res, chain = self.chain_for(0.0, with_kam=False)
        v0 = {(1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.1, (0, -1): 0.1}
        psi0 = {(1, 1): 0.2, (-1, -1): 0.2}
        times, states = evolve_original(p, OMEGA, v0, psi0, 20.0, dt=0.004)
        rep = conjugacy_roundtrip(chain, times, states)
        assert rep["inverse_residual"] <= 1e-12
        assert rep["reality_residual"] <= 1e-12
        # residual limited by the integrator only
        assert rep["trajectory_residual"] <= 1e-7

    def test_small_eps_full_chain(self):
        p, res, chain = self.chain_for(1e-3, with_kam=True)
        v0 = {(1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.1, (0, -1): 0.1}
        psi0 = {(1, 1): 0.2, (-1, -1): 0.2}
        times, states = evolve_original(p, OMEGA, v0, psi0, 10.0, dt=0.004)
        rep = conjugacy_roundtrip(chain, times, states)
        assert rep["inverse_residual"] <= 1e-9
        assert rep["trajectory_residual"] <= 1e-6

    def roundtrip_peaks(self, monkeypatch):
        """tracemalloc peaks of conjugacy_roundtrip at 21 and 201 sample
        times, with W2 in stacks of 20 angles (10 chunks for 200 times)."""
        # j_max = 3 (n = 28): the (2n, 2n) stacks outweigh the per-time data
        p = make_problem(1e-3, j_max=3)
        chain = ConjugationChain(p, OMEGA, run_pipeline(p, OMEGA))
        v0 = {(1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.1, (0, -1): 0.1}
        runs = [evolve_original(p, OMEGA, v0, {}, 4.0, dt=0.01, n_samples=k)
                for k in (20, 200)]
        reps = [conjugacy_roundtrip(chain, *run) for run in runs]
        monkeypatch.setattr(blockop, "_CHUNK_BYTES",
                            20 * 16 * (2 * p.lattice.n_points) ** 2)
        peaks = []
        for run, rep in zip(runs, reps):
            tracemalloc.start()
            try:
                chunked = conjugacy_roundtrip(chain, *run)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert chunked == pytest.approx(rep, rel=1e-12, abs=1e-15)
        return peaks

    def test_roundtrip_memory_independent_of_sample_count(self, monkeypatch):
        peaks = self.roundtrip_peaks(monkeypatch)
        assert peaks[1] < 2 * peaks[0]

    def test_roundtrip_memory_per_sample_time(self, monkeypatch):
        # one 2n state is 0.9 kB here: 180 more sample times may add a few
        # such vectors each, not per-time dicts or a second W2 chunk
        peaks = self.roundtrip_peaks(monkeypatch)
        assert peaks[1] - peaks[0] < 0.8e6

    def test_t0_slice_matches_initial_transform(self):
        p, res, chain = self.chain_for(1e-3, with_kam=True)
        v0 = {(1, 0): 0.4, (-1, 0): 0.4}
        psi0 = {(0, 1): 0.2, (0, -1): 0.2}
        lat = p.lattice
        n = lat.n_points
        u = chain.initial_reduced_data(
            np.concatenate([lattice_vector(lat, v0),
                            lattice_vector(lat, psi0)]))
        [x] = chain.solutions_from_reduced(u[:n], [0.0])
        vv, pp = dict(zip(lat.points, x[:n])), dict(zip(lat.points, x[n:]))
        for j in set(v0) | set(vv):
            assert vv.get(j, 0j) == pytest.approx(v0.get(j, 0j), abs=1e-10)
        for j in set(psi0) | set(pp):
            assert pp.get(j, 0j) == pytest.approx(psi0.get(j, 0j), abs=1e-10)

    def test_reparametrization_consistency(self):
        # evaluating the reparametrized trajectory at tau(t) equals the
        # chain's composed evaluation: encoded in solutions_from_reduced,
        # cross-checked here against a direct tau-grid
        p, res, chain = self.chain_for(1e-3, with_kam=False)
        assert chain.tau_of_t(0.0) == pytest.approx(
            float(res.stage3.alpha_fn.eval_at(np.zeros((1, 2))).real[0]),
            abs=1e-14,
        )
        t = 1.234
        tau = chain.tau_of_t(t)
        phi = (OMEGA * t).reshape(1, -1)
        assert tau == pytest.approx(
            t + float(res.stage3.alpha_fn.eval_at(phi).real[0]), abs=1e-14
        )
