import math

import numpy as np
import pytest

from wavekam import enumerate_clusters
from wavekam.resonance import (
    EigenData,
    classify_grid,
    classify_omega,
    measure_sweep,
    sorted_combos,
)

from oracles import OmegaGrid, divisor_check, eigenvalue_lipschitz_audit

from conftest import rng_for

TAU = 10.0
DD = 4.0


def toy_eigen(m=1.0, c=None):
    lat = enumerate_clusters(2, 2)
    return EigenData.unperturbed(lat, m=m, c=c)


class TestClassify:
    def test_strong_diophantine_accepted(self):
        eig = toy_eigen()
        omega = np.array([1.66991901, 1.54742436])
        rep = classify_omega(omega, eig, 1e-3, TAU, DD, 3)
        assert rep.accepted and not rep.certificates

    def test_constructed_difference_resonance(self):
        eig = toy_eigen()
        # omega.ell + sqrt(2) - 2 = 0 exactly at ell = (1, 0)
        omega = np.array([2.0 - math.sqrt(2.0), 1.54742436])
        rep = classify_omega(omega, eig, 1e-3, TAU, DD, 3, first_only=False)
        assert not rep.accepted
        certs = [c for c in rep.certificates if c["kind"] == "R"]
        assert certs
        assert any(
            c["alpha_sq"] == 2 and c["beta_sq"] == 4 and c["ell"] == [1, 0]
            for c in certs
        )
        # each certificate reproduces its failing inequality: through the
        # kernel, and at the eigenpair (k, j) it names
        for cert in rep.certificates:
            la = eig.tables[cert["alpha_sq"]]
            lb = eig.tables[cert["beta_sq"]]
            sign = "-" if cert["kind"] == "R" else "+"
            wl = float(np.dot(omega, cert["ell"]))
            _, gap, bad = divisor_check(np.array([wl]),
                                        sorted_combos(la, lb, sign),
                                        cert["threshold"])
            assert bad[0]
            assert gap[0] == pytest.approx(cert["value"], rel=1e-12, abs=1e-15)
            k, j = cert["k"], cert["j"]
            value = abs(wl + la[k] - lb[j]) if sign == "-" else abs(wl + la[k] + lb[j])
            assert value == cert["value"]

    def test_constructed_sum_resonance(self):
        eig = toy_eigen()
        # omega.ell + 1 + 1 = 0 at ell = (-2, 0) when omega_1 = 1
        omega = np.array([1.0, 1.54742436])
        rep = classify_omega(omega, eig, 1e-3, TAU, DD, 3, first_only=False)
        kinds = {c["kind"] for c in rep.certificates}
        assert "Q" in kinds

    def test_gamma_zero_vacuous(self):
        eig = toy_eigen()
        omega = np.array([1.0, 1.0])  # as resonant as it gets
        rep = classify_omega(omega, eig, 0.0, TAU, DD, 3)
        assert rep.accepted

    def test_pruning_soundness(self):
        # full unpruned scan and pruned scan agree on verdicts
        eig = toy_eigen()
        rng = rng_for("prune")
        for _ in range(25):
            omega = 1.0 + rng.random(2)
            a = classify_omega(omega, eig, 0.05, 2.0, 1.0, 2, prune=True)
            b = classify_omega(omega, eig, 0.05, 2.0, 1.0, 2, prune=False)
            assert a.accepted == b.accepted

    def test_grid_classifier_matches_scalar(self):
        eig = toy_eigen()
        rng = rng_for("grid-vs-scalar")
        samples = 1.0 + rng.random((40, 2))
        mask = classify_grid(samples, eig, 0.05, 2.0, 1.0, 2)
        for i, w in enumerate(samples):
            rep = classify_omega(w, eig, 0.05, 2.0, 1.0, 2, prune=False)
            assert rep.accepted == bool(mask[i]), (i, w)

    def test_batched_value_from_the_row_alone(self):
        # kirchhoff-lin's grid prefix: row 13, (1, 4/3), lies on
        # omega.ell = 0 at ell = (-4, 3).  A batched product may round that
        # to 0.0 where the one-row product gives 2.2e-16; the certificate
        # value is the one-row one.
        ax = np.linspace(1.0, 2.0, 40)
        mesh = np.meshgrid(ax, ax, indexing="ij")
        rows = np.stack([m.ravel() for m in mesh], axis=-1)[:64]
        eig = toy_eigen()
        reports = classify_omega(rows, eig, 0.01, TAU, DD, 4, first_only=False)
        ell = np.array([-4.0, 3.0])
        one_row = (rows[13:14] @ ell)[0]
        [value] = {c["value"] for c in reports[13].certificates
                   if c["ell"] == [-4, 3] and c["alpha_sq"] == 1}
        assert value == abs(one_row + 1.0 - 1.0)  # lambda = 1 on alpha = 1
        for w, rep in zip(rows, reports):
            one = classify_omega(w, eig, 0.01, TAU, DD, 4, first_only=False)
            assert rep.to_json() == one.to_json()

    def test_cluster_gap_floor_at_ell_zero(self):
        # for ell = 0 the (-) margin reproduces the spectral gap
        lat = enumerate_clusters(2, 2)
        eig = toy_eigen()
        gap_c = lat.cluster_gap_constant()
        omega = np.array([1.31, 1.67])
        for ca in lat.clusters:
            for cb in lat.clusters:
                if ca.alpha_sq == cb.alpha_sq:
                    continue
                gap = abs(ca.alpha - cb.alpha)
                assert gap >= gap_c * (1 / ca.alpha + 1 / cb.alpha) - 1e-12
                rep = classify_omega(omega, eig, 1e-4, TAU, DD, 1)
                assert rep.accepted


class TestMeasureSweep:
    def test_fraction_roughly_halves(self):
        eig = toy_eigen()
        rng = rng_for("sweep")
        samples = 1.0 + rng.random((3000, 2))
        gammas = [0.01, 0.005, 0.0025, 0.00125]
        rows, fit = measure_sweep(samples, eig, gammas, 2.0, 1.0, 2)
        fr = [r["fraction"] for r in rows]
        assert fr[0] > 0
        assert all(a >= b for a, b in zip(fr, fr[1:]))
        for a, b in zip(fr, fr[1:]):
            if b > 0.005:
                assert 1.4 <= a / b <= 2.8
        assert not fit["degenerate"]
        assert fit["r2"] >= 0.9

    def test_monotone_exclusion_pointwise(self):
        eig = toy_eigen()
        rng = rng_for("sweep-mono")
        samples = 1.0 + rng.random((500, 2))
        small = classify_grid(samples, eig, 0.01, 2.0, 1.0, 2)
        large = classify_grid(samples, eig, 0.05, 2.0, 1.0, 2)
        # anyone excluded at small gamma is excluded at large gamma
        assert np.all(large[~small] == False)  # noqa: E712

    def test_saturation_regime(self):
        eig = toy_eigen()
        rng = rng_for("sweep-sat")
        samples = 1.0 + rng.random((300, 2))
        rows, _ = measure_sweep(samples, eig, [5.0], 2.0, 1.0, 2)
        assert rows[0]["fraction"] > 0.9

    def test_scan_table_built_once_per_eigen_data(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("sweep-table")
        blocks = {}
        for c in lat.clusters:
            h = rng.standard_normal((c.n_alpha,) * 2) * 1e-2
            blocks[c.alpha_sq] = c.alpha * np.eye(c.n_alpha) + h + h.T
        eig = EigenData.from_blocks(lat, blocks)
        samples = 1.0 + rng.random((400, 2))
        gammas = [0.02, 0.01]
        first = measure_sweep(samples, eig, gammas, 2.0, 1.0, 2)
        table = eig.scan_table
        assert measure_sweep(samples, eig, gammas, 2.0, 1.0, 2) == first
        assert eig.scan_table is table
        fresh = EigenData.from_blocks(lat, blocks)
        assert measure_sweep(samples, fresh, gammas, 2.0, 1.0, 2) == first
        combos, centres, _ = table
        pairs = [(a, b) for a in lat.clusters for b in lat.clusters]
        assert len(combos) == 3 * len(pairs)
        for i, (ca, cb) in enumerate(pairs):
            la, lb = eig.tables[ca.alpha_sq], eig.tables[cb.alpha_sq]
            assert np.array_equal(combos[3 * i], sorted_combos(la, lb, "-"))
        assert np.all(np.diff(centres) >= 0)

    def test_single_sample_degenerate(self):
        eig = toy_eigen()
        rows, fit = measure_sweep(
            np.array([[1.3, 1.7]]), eig, [0.1, 0.05], 2.0, 1.0, 2
        )
        assert fit["degenerate"]


class TestEigenvalueLipschitz:
    def grid(self):
        return OmegaGrid([(1.0, 2.0)], [6], 0.1, 2.0)

    def test_constant_blocks_zero_quotient(self):
        lat = enumerate_clusters(2, 1)
        g = OmegaGrid([(1.0, 2.0)], [4], 0.1, 2.0)
        rng = rng_for("lip-const")
        m = rng.standard_normal((4, 4))
        m = m + m.T
        blocks = [{1: m} for _ in range(len(g))]
        rep = eigenvalue_lipschitz_audit(g, blocks, lat)
        assert not rep["violations"]
        assert max(q[0] for q in rep["quotients"]) <= 1e-14

    def test_affine_family_bounded_by_slope(self):
        lat = enumerate_clusters(2, 1)
        g = OmegaGrid([(1.0, 2.0)], [5], 0.1, 2.0)
        rng = rng_for("lip-affine")
        base = rng.standard_normal((4, 4))
        base = base + base.T
        slope = rng.standard_normal((4, 4))
        slope = slope + slope.T
        blocks = [
            {1: base + float(w[0]) * slope} for w in g.samples
        ]
        rep = eigenvalue_lipschitz_audit(g, blocks, lat)
        assert not rep["violations"]
        slope_norm = np.linalg.norm(slope, "fro")
        assert max(q[0] for q in rep["quotients"]) <= slope_norm + 1e-10

    def test_random_family_weyl_bound(self):
        lat = enumerate_clusters(2, 2)
        g = OmegaGrid([(1.0, 2.0), (1.0, 1.5)], [3, 3], 0.1, 2.0)
        rng = rng_for("lip-random")
        blocks = []
        for w in g.samples:
            per = {}
            for c in lat.clusters:
                m = rng.standard_normal((c.n_alpha, c.n_alpha)) \
                    + 1j * rng.standard_normal((c.n_alpha, c.n_alpha))
                m = m + m.conj().T
                base = np.diag(np.full(c.n_alpha, c.alpha))
                per[c.alpha_sq] = base + 0.01 * float(np.sum(w)) * m
                # smooth in omega within each sample row is irrelevant here:
                # the audit only needs the Weyl inequality per pair
            blocks.append(per)
        rep = eigenvalue_lipschitz_audit(g, blocks, lat)
        assert not rep["violations"]
