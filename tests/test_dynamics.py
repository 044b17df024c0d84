import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wavekam import AngleFunction, SpaceTimeFunction
from wavekam.cli import build_problem, load_config
from wavekam.dynamics import (
    ConjugationChain,
    conjugacy_roundtrip,
    evolve_original,
    evolve_reduced,
    reduced_norm_drift,
    stability_check,
)
from wavekam.errors import ParameterError
from wavekam.kam import KamConfig, kam_run
from wavekam.regularization import WaveProblem, run_pipeline

from conftest import rng_for
from oracles import evolve_original_dicts
from test_acceptance import desk_problem

# strongly non-resonant against the toy spectrum {1, sqrt 2, 2}
OMEGA = np.array([1.66991901, 1.54742436])


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
        times, vm, pm, _ = evolve_original(
            p, OMEGA, v0, psi0, horizon, dt=0.005, n_samples=41
        )
        for t, m in zip(times, vm):
            want = 0.5 * math.cos(t)
            assert m[j] == pytest.approx(want, abs=1e-8)

    def test_eps_zero_norm_conserved_to_scheme_order(self):
        p = make_problem(0.0)
        v0 = {(1, 0): 0.5, (-1, 0): 0.5, (1, 1): 0.2, (-1, -1): 0.2}
        psi0 = {(0, 1): 0.3, (0, -1): 0.3}
        times, vm, pm, _ = evolve_original(
            p, OMEGA, v0, psi0, 20.0, dt=0.005
        )
        def energy(v, ps):
            acc = 0.0
            for j, val in v.items():
                acc += sum(x * x for x in j) * abs(val) ** 2
            for j, val in ps.items():
                acc += abs(val) ** 2
            return acc
        e0 = energy(vm[0], pm[0])
        for v, ps in zip(vm, pm):
            assert energy(v, ps) == pytest.approx(e0, rel=1e-10)

    def test_self_convergence_order(self):
        # Richardson: halving dt shrinks the deviation by ~2^4
        p = make_problem(1e-2)
        v0 = {(1, 0): 0.5, (-1, 0): 0.5}
        psi0 = {(0, 1): 0.25, (0, -1): 0.25}
        horizon = 5.0
        outs = {}
        for dt in (0.02, 0.01, 0.005):
            times, vm, pm, _ = evolve_original(
                p, OMEGA, v0, psi0, horizon, dt=dt, n_samples=2
            )
            outs[dt] = vm[-1]
        def dist(a, b):
            keys = set(a) | set(b)
            return math.sqrt(sum(abs(a.get(k, 0j) - b.get(k, 0j)) ** 2
                                 for k in keys))
        e1 = dist(outs[0.02], outs[0.01])
        e2 = dist(outs[0.01], outs[0.005])
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
            times, vm, pm, states = evolve_original(p, omega, v0, psi0,
                                                    horizon, dt)
            want = evolve_original_dicts(p, omega, v0, psi0, horizon, dt)
            assert times == want[0]
            got, ref = np.array(states), np.array(want[3])
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert [list(m) for m in vm] == [list(m) for m in want[1]]

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


class TestEvolveReduced:
    def test_phase_rotation_1x1(self):
        from wavekam import enumerate_clusters

        lat = enumerate_clusters(2, 2)
        lam = 1.37
        blocks = {c.alpha_sq: lam * np.eye(c.n_alpha) for c in lat.clusters}
        u0 = {(1, 0): 1.0}
        snaps = evolve_reduced(blocks, lat, u0, [0.0, 0.5, 2.0])
        for t, snap in zip([0.0, 0.5, 2.0], snaps):
            assert snap[(1, 0)] == pytest.approx(np.exp(-1j * lam * t))

    def test_unitary_norm_drift(self):
        from wavekam import enumerate_clusters

        lat = enumerate_clusters(2, 2)
        rng = rng_for("reduced-unitary")
        blocks = {}
        for c in lat.clusters:
            m = rng.standard_normal((c.n_alpha, c.n_alpha)) \
                + 1j * rng.standard_normal((c.n_alpha, c.n_alpha))
            blocks[c.alpha_sq] = c.alpha * np.eye(c.n_alpha) + 0.01 * (m + m.conj().T)
        u0 = {}
        pts = list(lat.all_points())
        for k in rng.integers(0, len(pts), 5):
            u0[pts[int(k)]] = complex(rng.standard_normal(), rng.standard_normal())
        times = np.linspace(0.0, 50.0, 21)
        snaps = evolve_reduced(blocks, lat, u0, times)
        for s in (0.0, 1.5):
            assert reduced_norm_drift(snaps, s) <= 1e-12

    def test_t0_identity(self):
        from wavekam import enumerate_clusters

        lat = enumerate_clusters(2, 1)
        blocks = {1: np.eye(4)}
        u0 = {(1, 0): 0.7 + 0.1j, (0, 1): -0.2j}
        (snap,) = evolve_reduced(blocks, lat, u0, [3.0], t0=3.0)
        for j, v in u0.items():
            assert snap[j] == pytest.approx(v)


class TestStability:
    def test_eps_zero_ratio_bounded_by_one(self):
        p = make_problem(0.0)
        v0 = {(1, 0): 0.5, (-1, 0): 0.5}
        psi0 = {(1, 0): 0.5j, (-1, 0): -0.5j}
        times, vm, pm, _ = evolve_original(p, OMEGA, v0, psi0, 30.0, dt=0.01)
        rep = stability_check(times, vm, pm, s=1.0)
        assert rep["bounded"]
        assert rep["sup_ratio"] <= 1.0 + 1e-6

    def test_zero_data_rejected(self):
        with pytest.raises(ParameterError):
            stability_check([0.0], [{}], [{}], 1.0)


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
        times, vm, pm, _ = evolve_original(p, OMEGA, v0, psi0, 20.0, dt=0.004)
        rep = conjugacy_roundtrip(chain, times, vm, pm)
        assert rep["inverse_residual"] <= 1e-12
        assert rep["reality_residual"] <= 1e-12
        # residual limited by the integrator only
        assert rep["trajectory_residual"] <= 1e-7

    def test_small_eps_full_chain(self):
        p, res, chain = self.chain_for(1e-3, with_kam=True)
        v0 = {(1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.1, (0, -1): 0.1}
        psi0 = {(1, 1): 0.2, (-1, -1): 0.2}
        times, vm, pm, _ = evolve_original(p, OMEGA, v0, psi0, 10.0, dt=0.004)
        rep = conjugacy_roundtrip(chain, times, vm, pm)
        assert rep["inverse_residual"] <= 1e-9
        assert rep["trajectory_residual"] <= 1e-6

    def test_t0_slice_matches_initial_transform(self):
        p, res, chain = self.chain_for(1e-3, with_kam=True)
        v0 = {(1, 0): 0.4, (-1, 0): 0.4}
        psi0 = {(0, 1): 0.2, (0, -1): 0.2}
        u1, u2 = chain.initial_reduced_data(v0, psi0)
        [(vv, pp)] = chain.solutions_from_reduced(u1, [0.0])
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
