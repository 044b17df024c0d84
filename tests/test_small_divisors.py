"""The small-divisor kernel against the dense reference scans in oracles.py,
and the window kernel against the one that searched both ends of every
window.

Random Hermitian cluster blocks (generic, scalar, exactly repeated and
unitarily rotated repeated spectra), frequencies, gamma, cutoffs and boxes:
the KAM Melnikov scan, classify_omega (pruned or not, first or all
certificates, one row or a batch of rows), classify_grid and measure_sweep
must give the reference verdicts and certificates.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from wavekam import enumerate_clusters, kam, resonance
from wavekam.errors import ResourceLimitError
from wavekam.kam import MAX_SCAN_ELLS, KamConfig, KamState, _melnikov_scan
from wavekam.resonance import (
    EigenData,
    _grid_masks,
    classify_grid,
    classify_omega,
    measure_sweep,
    sorted_combos,
)
from wavekam.spectrum import ell_table

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])
# per prune/first_only combination; each example runs the oracle per row
BATCH = settings(PROPERTY, max_examples=60)


def hermitian_block(rng, n, alpha, kind, size):
    """alpha I plus a perturbation whose spectrum is generic or degenerate."""
    if kind == "scalar":
        h = np.eye(n) * rng.normal()
    else:
        vals = rng.normal(size=n)
        if kind in ("repeated", "rotated"):
            vals = np.repeat(vals[: (n + 1) // 2], 2)[:n]
        h = np.diag(vals).astype(complex)
        if kind in ("generic", "rotated"):
            q, _ = np.linalg.qr(rng.normal(size=(n, n))
                                + 1j * rng.normal(size=(n, n)))
            h = q @ h @ q.conj().T
            h = 0.5 * (h + h.conj().T)
    return alpha * np.eye(n, dtype=complex) + size * h


@st.composite
def spectra(draw):
    lattice = enumerate_clusters(draw(st.sampled_from([1, 2])),
                                 draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.4]))
    kinds = st.sampled_from(["generic", "scalar", "repeated", "rotated"])
    blocks = {
        c.alpha_sq: hermitian_block(rng, c.n_alpha, c.alpha, draw(kinds), size)
        for c in lattice.clusters
    }
    return lattice, blocks


frequencies = st.lists(
    st.one_of(st.floats(0.3, 2.5), st.sampled_from([0.5, 1.0, 1.5, 2.0])),
    min_size=1, max_size=3,
)
gammas = st.floats(1e-4, 1.0)
exponents = st.floats(0.0, 4.0)


def probe_rows(eig, gamma, dd, rng, k=24):
    """Rows whose omega.ell at ell = (1, 0) is exactly -d, a window edge
    -d -+ reach of the scan, or the midpoint of -d and its neighbour, for k
    combinations d drawn from the condition tables.  With several
    eigenvalues per cluster a condition's windows can be disjoint, and the
    midpoints then lie in their hull but in none of them."""
    clusters, xs = eig.lattice.clusters, []
    for _ in range(k):
        ca, cb = (clusters[i] for i in rng.integers(len(clusters), size=2))
        sign = "-+"[int(rng.integers(2))]
        combos = sorted_combos(eig.tables[ca.alpha_sq],
                               eig.tables[cb.alpha_sq], sign)
        # the scan's largest threshold at |ell| = 1, gamma the largest gamma
        thr = (2.0 * gamma / (ca.alpha * cb.alpha) ** dd if sign == "-"
               else 2.0 * gamma * (ca.alpha + cb.alpha))
        i = int(rng.integers(combos.size))
        reach = 2.0 * thr + 1e-15 * abs(combos[i])
        xs += [-combos[i], -combos[i] - reach, -combos[i] + reach]
        if i + 1 < combos.size:
            xs.append(-0.5 * (combos[i] + combos[i + 1]))
    return np.column_stack([xs, 0.3 + 2.2 * rng.random(len(xs))])


def pruning_edges(eig, samples, tau, ell_max):
    """The positive gammas at which a difference or sum condition's pruning
    bound flips, per cluster pair and distinct |ell| of the box."""
    m, r_max = eig.m, eig.correction_bound()
    omega_max = float(np.max(np.linalg.norm(samples, axis=1)))
    edges = []
    for n in np.unique(ell_table(samples.shape[1], ell_max)[1]).tolist():
        for ca in eig.lattice.clusters:
            for cb in eig.lattice.clusters:
                a, b = ca.alpha, cb.alpha
                edges += [(m * abs(a - b) - omega_max * n - 2.0 * r_max) / 2,
                          (m - (omega_max * n + 2.0 * r_max) / (a + b))
                          * max(1.0, n) ** tau / 2]
    return np.unique([e for e in edges if e > 0])


def state_of(blocks):
    return KamState(step=0, d_blocks=blocks, remainder=None, accumulated=None)


def probe_frequency(state, lattice, cfg, n_cut, rng, kind):
    """omega.ell at ell = (1, 0, ...), that is omega_1, placed exactly at -d
    ('at'), at a window edge -d -+ reach of the scan ('below', 'above') or
    at the midpoint of -d and its neighbour ('mid'), for a combination d of
    the state's cached tables: the hull candidates the one-pass kernel
    reads."""
    inside = [c for c in lattice.clusters if c.alpha <= n_cut]
    ca, cb = (inside[i] for i in rng.integers(len(inside), size=2))
    sign = "-+"[int(rng.integers(2))]
    combos = sorted_combos(state.eig(lattice, ca.alpha_sq)[0],
                           state.eig(lattice, cb.alpha_sq, sign)[0], sign)
    # the condition's largest threshold, at <ell>^tau = 1
    thr = (cfg.gamma / (ca.alpha * cb.alpha) ** cfg.dd if sign == "-"
           else cfg.gamma * (ca.alpha + cb.alpha))
    i = int(rng.integers(combos.size))
    if kind == "mid" and i + 1 < combos.size:
        return -0.5 * (combos[i] + combos[i + 1])
    reach = 2.0 * thr + 1e-15 * abs(combos[i])
    return -combos[i] + {"below": -reach, "above": reach}.get(kind, 0.0)


@st.composite
def window_tables(draw):
    """Inputs of the window kernel: conditions of 1-4 combinations each (as
    D_inf tables give), drawn from a small pool so that centres repeat within
    and across conditions; one threshold per condition, -inf (pruned), 0
    (zero reach) or positive; omega.ell values that repeat, sit on centres,
    exactly on window ends or one ulp outside them, down to a single
    sample."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.r_[rng.normal(size=draw(st.integers(1, 10))), 0.0]
    combos = [np.sort(rng.choice(pool, size=rng.integers(1, 5)))
              for _ in range(draw(st.integers(1, 8)))]
    thr = rng.choice([-np.inf, 0.0, 1e-3, 0.05, 0.5], size=len(combos))
    n = draw(st.integers(1, 30))
    candidates = [-pool, rng.normal(size=n)]
    for d, t in zip(combos, thr):
        reach = 2.0 * t + 1e-15 * np.abs(d)
        lower, upper = -d - reach, -d + reach
        candidates += [lower, upper, np.nextafter(lower, -np.inf),
                       np.nextafter(upper, np.inf)]
    candidates = np.concatenate(candidates)
    return combos, thr, rng.choice(candidates[np.isfinite(candidates)], size=n)


def kernel_runs(combos, thr, wl):
    """(c, s) sequences of the reference kernel and of ``_hull_hits``."""
    sizes = [d.size for d in combos]
    ref = oracles.hull_hits(wl, np.sort(wl), np.concatenate(combos),
                            np.cumsum(sizes) - sizes, np.repeat(thr, sizes))
    centres, cond = resonance._centres(combos)
    got = resonance._hull_hits(wl, resonance._padded_sort(wl), centres, cond,
                               thr[cond])
    return ([(int(c), s.tolist()) for c, s in ref],
            [(int(c), s.tolist()) for c, s in got])


class TestKernel:
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.floats(1e-6, 3.0), st.booleans())
    def test_dense_minimum_and_tie_rules(self, seed, na, nb, scale, closed):
        rng = np.random.default_rng(seed)
        la = np.sort(rng.normal(size=na))
        lb = np.sort(np.repeat(rng.normal(size=(nb + 1) // 2), 2)[:nb])
        x = np.sort(np.r_[rng.normal(scale=3.0, size=200), -(la[0] - lb[-1])])
        table = (la[:, None] - lb[None, :]).ravel()
        dense = np.min(np.abs(x[:, None] + table[None, :]), axis=1)
        thr = scale * rng.random(x.size)
        thr[::7] = dense[::7]  # exact ties
        pos, gap, bad = oracles.divisor_check(x, sorted_combos(la, lb, "-"),
                                              thr, closed=closed)
        want = dense <= thr if closed else dense < thr
        assert np.array_equal(np.flatnonzero(want), pos[bad])
        assert np.array_equal(gap, dense[pos])  # bit for bit

    def test_several_threshold_sets(self):
        x = np.linspace(-1.0, 1.0, 41)
        combos = np.array([-0.5, 0.5])
        thr = np.array([[0.1], [0.0], [-np.inf]])
        pos, gap, bad = oracles.divisor_check(x, combos, thr)
        assert bad.shape == (3, pos.size)
        assert np.array_equal(x[pos[bad[0]]], x[np.abs(np.abs(x) - 0.5) < 0.1])
        assert not bad[1:].any()

    @PROPERTY
    @given(window_tables())
    def test_hull_hits_matches_reference_kernel(self, tables):
        """One search of the sorted centres per row yields the (c, s)
        sequence of the kernel that searched both ends of every window."""
        ref, got = kernel_runs(*tables)
        assert got == ref

    def test_hull_hits_on_window_ends(self):
        """A value exactly on either end of a window is inside it, one ulp
        beyond is not; a pruned condition never hits, and zero reach hits
        only the centre itself."""
        combos = [np.array([-1.0, 0.5]), np.array([0.25]), np.array([0.0])]
        thr = np.array([0.1, -np.inf, 0.0])
        reach = 2.0 * 0.1 + 1e-15 * 1.0  # the window around -d = 1
        lower, upper = 1.0 - reach, 1.0 + reach
        for wl, want in (
                ([lower], [(0, [0])]), ([upper], [(0, [0])]),
                ([np.nextafter(lower, 0.0), np.nextafter(upper, 2.0)], []),
                ([-0.25, 0.0], [(2, [1])]), ([1e-300], [])):
            ref, got = kernel_runs(combos, thr, np.array(wl))
            assert got == ref == want

    def test_kernel_contract(self, monkeypatch):
        """Every caller hands ``_hull_hits`` ascending centres and omega.ell
        sorted between a -inf and a +inf sentinel."""
        calls = []

        def checked(kernel):
            def wrapper(wl, xs, centres, cond, thr_max):
                calls.append(None)
                assert np.all(np.diff(centres) >= 0)
                assert xs[0] == -np.inf and xs[-1] == np.inf
                assert np.all(np.diff(xs[1:-1]) >= 0)
                assert xs.size == wl.size + 2
                return kernel(wl, xs, centres, cond, thr_max)
            return wrapper

        monkeypatch.setattr(resonance, "_hull_hits",
                            checked(resonance._hull_hits))
        monkeypatch.setattr(kam, "_hull_hits", checked(kam._hull_hits))
        lattice = enumerate_clusters(2, 2)
        rng = np.random.default_rng(5)
        blocks = {c.alpha_sq: hermitian_block(rng, c.n_alpha, c.alpha,
                                              "generic", 0.05)
                  for c in lattice.clusters}
        eig = oracles.eigen_from_blocks(lattice, blocks)
        rows = 0.3 + 2.2 * rng.random((30, 2))
        _grid_masks(rows, eig, [0.05, 0.01], 2.0, 1.0, 2)
        assert len(calls) == (5 ** 2 + 1) // 2
        classify_omega(rows[:3], eig, 0.05, 2.0, 1.0, 2, first_only=False)
        assert len(calls) == 2 * 13
        cfg = KamConfig(nu=2, d=2, gamma=0.05, tau=2.0, dd=1.0)
        _melnikov_scan(state_of(blocks), lattice, cfg, rows[0], 3, 2)
        assert len(calls) == 27


class TestMelnikovScan:
    @PROPERTY
    @given(spectra(), frequencies, gammas, exponents, exponents,
           st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([None, "at", "below", "above", "mid"]))
    def test_matches_dense_scan(self, spec, omega, gamma, tau, dd, n_cut,
                                seed, probe):
        lattice, blocks = spec
        omega = np.array(omega)
        cfg = KamConfig(nu=omega.size, d=lattice.d, gamma=gamma, tau=tau,
                        dd=dd)
        state = state_of(blocks)
        if probe is not None:
            omega[0] = probe_frequency(state, lattice, cfg, n_cut,
                                       np.random.default_rng(seed), probe)
        ok, err = _melnikov_scan(state, lattice, cfg, omega, n_cut, omega.size)
        ok_ref, err_ref = oracles.melnikov_scan(state, lattice, cfg, omega,
                                                n_cut, omega.size)
        assert ok == ok_ref
        if not ok:
            assert err.certificate() == err_ref.certificate()
            # and the reference single-condition check agrees it fails
            passes, _ = oracles.check_melnikov(
                state, lattice, cfg, omega, err.ell, err.alpha_sq,
                err.beta_sq, err.kind,
            )
            assert not passes

    def test_cap_refuses_without_shrinking(self):
        # the box |ell|_inf <= 600 has 1201^2 ~ 1.44e6 points, above the cap;
        # the scan refuses before it reads the state
        cfg = KamConfig(nu=2, d=2, gamma=0.01)
        with pytest.raises(ResourceLimitError) as err:
            _melnikov_scan(None, None, cfg, np.ones(2), 600, 2)
        cert = err.value.certificate()
        assert cert == {"kind": "ell-cap", "N_k": 600, "nu": 2,
                        "n_ell": 1201**2, "cap": MAX_SCAN_ELLS}
        # the desk problem's largest scan (N = 269) stays inside the cap
        assert 539**2 < MAX_SCAN_ELLS


class TestClassifier:
    @PROPERTY
    @given(spectra(), st.floats(0.3, 2.5), st.floats(0.3, 2.5), gammas,
           exponents, exponents, st.integers(1, 3), st.booleans(),
           st.booleans())
    def test_classify_omega_matches_reference(self, spec, w1, w2, gamma, tau,
                                              dd, ell_max, prune, first_only):
        lattice, blocks = spec
        eig = oracles.eigen_from_blocks(lattice, blocks)
        omega = np.array([w1, w2])
        got = classify_omega(omega, eig, gamma, tau, dd, ell_max, prune=prune,
                             first_only=first_only)
        ref = oracles.classify_omega(omega, eig, gamma, tau, dd, ell_max,
                                     prune=prune, first_only=first_only)
        assert got.accepted == ref.accepted
        assert got.certificates == ref.certificates
        for cert in got.certificates:
            bad, value = oracles.recheck_certificate(omega, eig, cert)
            assert bad and value == cert["value"]

    def test_certificate_values_are_the_kernels_combinations(self):
        # omega.ell = 2 against the threshold 2 at ell = (1, 1): (2 + l) - l
        # rounds to 1.9999999999999998, the combination first gives 2, a tie
        lattice = enumerate_clusters(1, 1)
        eig = EigenData(lattice, {1: np.full(2, 1.00012573)})
        omega = np.array([1.0, 1.0])
        got = classify_omega(omega, eig, 1.0, 0.0, 0.0, 1, prune=False,
                             first_only=False)
        ref = oracles.classify_omega(omega, eig, 1.0, 0.0, 0.0, 1,
                                     prune=False, first_only=False)
        assert got.certificates == ref.certificates
        assert not any(c["kind"] == "R" and c["ell"] == [1, 1]
                       for c in got.certificates)

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("first_only", [True, False])
    @BATCH
    @given(spectra(), st.integers(1, 3), st.integers(1, 5),
           st.integers(0, 2**32 - 1), gammas, exponents, exponents,
           st.integers(1, 3))
    def test_batched_rows_match_one_row_and_reference(
            self, prune, first_only, spec, nu, m, seed, gamma, tau, dd,
            ell_max):
        lattice, blocks = spec
        eig = oracles.eigen_from_blocks(lattice, blocks)
        rng = np.random.default_rng(seed)
        rows = 0.3 + 2.2 * rng.random((m, nu))
        # exact half-integers make some conditions fail with value 0
        exact = rng.random((m, nu)) < 0.3
        rows[exact] = rng.choice([0.5, 1.0, 1.5, 2.0], size=int(exact.sum()))
        got = classify_omega(rows, eig, gamma, tau, dd, ell_max, prune=prune,
                             first_only=first_only)
        assert len(got) == m
        for w, rep in zip(rows, got):
            one = classify_omega(w, eig, gamma, tau, dd, ell_max, prune=prune,
                                 first_only=first_only)
            ref = oracles.classify_omega(w, eig, gamma, tau, dd, ell_max,
                                         prune=prune, first_only=first_only)
            assert np.array_equal(rep.omega, w)
            assert rep.accepted == one.accepted == ref.accepted
            assert rep.certificates == one.certificates == ref.certificates

    @PROPERTY
    @given(spectra(), st.integers(0, 2**32 - 1), gammas, exponents,
           exponents, st.integers(1, 3))
    def test_grid_and_sweep_match_reference(self, spec, seed, gamma, tau, dd,
                                            ell_max):
        lattice, blocks = spec
        eig = oracles.eigen_from_blocks(lattice, blocks)
        rng = np.random.default_rng(seed)
        samples = 0.3 + 2.2 * rng.random((40, 2))
        # exact half-integers make some conditions fail with value 0
        exact = rng.random(samples.shape) < 0.3
        samples[exact] = rng.choice([0.5, 1.0, 1.5, 2.0], size=int(exact.sum()))
        samples = np.r_[samples, probe_rows(eig, gamma, dd, rng)]
        samples = rng.permutation(
            np.r_[samples, samples[rng.integers(len(samples), size=12)]])
        gamma_list = [gamma, gamma / 3, gamma / 10]
        masks = [oracles.classify_grid(samples, eig, g, tau, dd, ell_max)
                 for g in gamma_list]
        assert np.array_equal(
            classify_grid(samples, eig, gamma, tau, dd, ell_max), masks[0])
        assert np.array_equal(
            _grid_masks(samples, eig, gamma_list, tau, dd, ell_max), masks)
        rows, _ = measure_sweep(samples, eig, gamma_list, tau, dd, ell_max)
        for row, mask in zip(rows, masks):
            assert row["n_excluded"] == int(np.sum(~mask))
            assert row["fraction"] == float(np.mean(~mask))


    @settings(PROPERTY, max_examples=40)
    @given(spectra(), st.integers(0, 2**32 - 1), exponents, exponents,
           st.integers(1, 2), st.booleans(), st.booleans())
    def test_gamma_lists_match_reference(self, spec, seed, tau, dd, ell_max,
                                         prune, zero_row):
        """Unsorted gamma lists with repeats and gammas on both sides of a
        pruning edge: the windows come from the largest gamma alone, and
        each gamma's mask and certificates still equal the reference's,
        pruned or not, with a difference placed at ell = 0 between two of
        the gammas' thresholds when ``zero_row``."""
        lattice, blocks = spec
        eig = oracles.eigen_from_blocks(lattice, blocks)
        rng = np.random.default_rng(seed)
        samples = 0.2 + rng.random((24, 2))
        gammas = [1e-3, 0.05]
        edges = pruning_edges(eig, samples, tau, ell_max)
        for e in rng.choice(edges, min(2, edges.size), replace=False):
            gammas += [e * (1.0 - 1e-9), e, e * (1.0 + 1e-9)]
        if zero_row:
            ca, cb = (lattice.clusters[i]
                      for i in rng.integers(len(lattice.clusters), size=2))
            g_mid = 0.01
            eig.tables[cb.alpha_sq][0] = eig.tables[ca.alpha_sq][0] + (
                2.0 * g_mid / (ca.alpha * cb.alpha) ** dd)
            gammas += [g_mid, 0.5 * g_mid, 2.0 * g_mid]
        gammas = list(rng.permutation(gammas + gammas[:2]))
        if prune:
            masks = _grid_masks(samples, eig, gammas, tau, dd, ell_max)
        else:
            masks = np.ones((len(gammas), len(samples)), dtype=bool)
            for *_, g, s in resonance._scan_box(samples, eig, gammas, tau, dd,
                                                ell_max, prune=False):
                masks[g, s] = False
        for g, mask in zip(gammas, masks):
            assert np.array_equal(
                mask, oracles.classify_grid(samples, eig, g, tau, dd, ell_max))
        for g in set(gammas):
            got = classify_omega(samples[:3], eig, g, tau, dd, ell_max,
                                 prune=prune, first_only=False)
            for w, rep in zip(samples, got):
                ref = oracles.classify_omega(w, eig, g, tau, dd, ell_max,
                                             prune=prune, first_only=False)
                assert rep.certificates == ref.certificates

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("sign", "-+")
    @pytest.mark.parametrize("where", ["lower", "mirror", "zero"])
    def test_fold_probes_on_lines(self, where, sign, prune):
        """Rows exactly on a difference or sum line at ell = (0, -1), a row
        of the scanned lower half, at its mirror (0, 1), or at ell = 0
        through a shared table entry: the folded scan gives the reference
        verdicts, certificates and masks, and the reference has the
        certificate the probe was placed on."""
        lattice = enumerate_clusters(2, 2)
        rng = np.random.default_rng(7)
        eig = oracles.eigen_from_blocks(lattice, {
            c.alpha_sq: hermitian_block(rng, c.n_alpha, c.alpha, "generic", 0.05)
            for c in lattice.clusters})
        ca, cb = lattice.clusters[1], lattice.clusters[2]
        ell = {"lower": [0, -1], "mirror": [0, 1], "zero": [0, 0]}[where]
        rows = 0.3 + 2.2 * rng.random((6, 2))
        if where == "zero":
            # lambda_0(alpha) -+ lambda_0(beta) = 0 exactly, for every omega
            flip = 1.0 if sign == "-" else -1.0
            eig.tables[cb.alpha_sq][0] = flip * eig.tables[ca.alpha_sq][0]
        else:
            # omega.ell = -omega_2 ell_2 exactly, so the first three rows
            # sit on the line omega.ell + d = 0
            d = sorted_combos(eig.tables[ca.alpha_sq],
                              eig.tables[cb.alpha_sq], sign)[1]
            rows[:3, 1] = -d * ell[1]
        args = (1e-3, 2.0, 1.0, 2)
        for first_only in (True, False):
            got = classify_omega(rows, eig, *args, prune=prune,
                                 first_only=first_only)
            for w, rep in zip(rows, got):
                ref = oracles.classify_omega(w, eig, *args, prune=prune,
                                             first_only=first_only)
                assert rep.accepted == ref.accepted
                assert rep.certificates == ref.certificates
        want = {"kind": "RQ"[sign == "+"], "ell": ell, "value": 0.0,
                "alpha_sq": ca.alpha_sq, "beta_sq": cb.alpha_sq}
        for w in rows[:3]:
            ref = oracles.classify_omega(w, eig, *args, prune=prune,
                                         first_only=False)
            assert any(want.items() <= c.items() for c in ref.certificates)
        gammas = [1e-3, 1e-2]
        assert np.array_equal(
            _grid_masks(rows, eig, gammas, *args[1:]),
            [oracles.classify_grid(rows, eig, g, *args[1:]) for g in gammas])

    def test_grid_scan_visits_half_the_box(self, monkeypatch):
        """One window-kernel call per scanned box row: (n_box + 1) / 2."""
        calls = []
        kernel = resonance._hull_hits

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(resonance, "_hull_hits", counted)
        lattice = enumerate_clusters(2, 2)
        eig = EigenData.unperturbed(lattice)
        samples = 1.0 + np.random.default_rng(3).random((50, 3))
        _grid_masks(samples, eig, [0.01, 0.001], 2.0, 1.0, 2)
        assert len(calls) == (5 ** 3 + 1) // 2


@pytest.fixture(scope="module")
def desk_sweep():
    """The desk problem's eigenvalue table and a 100 x 100 grid on [1, 2]^2."""
    from test_acceptance import desk_problem
    from wavekam.regularization import run_pipeline

    p = desk_problem(1e-3)
    reg = run_pipeline(p, np.array([1.66991901, 1.54742436]))
    eig = EigenData.unperturbed(p.lattice, m=reg.m, c=list(reg.c))
    ax = np.linspace(1.0, 2.0, 100)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    samples = np.stack([m.ravel() for m in mesh], axis=-1)
    g0 = 0.02
    return p, eig, samples, [g0, g0 / 2, g0 / 4, g0 / 8]


def test_desk_sweep_bit_identical_to_reference(desk_sweep):
    """Criterion 6's 10^4-sample sweep: masks and rows equal four reference
    grid calls."""
    p, eig, samples, gamma_list = desk_sweep
    rows, fit = measure_sweep(samples, eig, gamma_list, p.tau, p.dd, p.ell_max)
    got = _grid_masks(samples, eig, gamma_list, p.tau, p.dd, p.ell_max)
    for row, g, mask in zip(rows, gamma_list, got):
        want = oracles.classify_grid(samples, eig, g, p.tau, p.dd, p.ell_max)
        assert np.array_equal(mask, want)
        assert row["n_excluded"] == int(np.sum(~want))
        assert row["fraction"] == float(np.mean(~want))
    assert not math.isnan(fit["r2"])


def test_desk_sweep_memory_stays_per_ell(desk_sweep):
    """The sweep holds a few length-n arrays per ell at a time (omega.ell,
    its sorted copy, a hull test, the masks) and the largest threshold of
    each condition per distinct |ell| (42 x 972, about 2 samples.nbytes):
    about 5.5 samples.nbytes at its peak.  Anything held across the 145
    scanned ells, such as the stacked omega.ell (72 samples.nbytes) or a
    per-gamma threshold table per distinct |ell| (about 5.4 more), breaks
    the bound of 8."""
    p, eig, samples, gamma_list = desk_sweep
    tracemalloc.start()
    try:
        measure_sweep(samples, eig, gamma_list, p.tau, p.dd, p.ell_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * samples.nbytes
