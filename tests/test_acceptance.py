"""Acceptance criteria at desk scale.

Defaults: d = 2, nu = 2, j_max = 6, ell_max = 8, eps in {1e-3, 5e-4},
gamma = eps^0.75.  Each criterion prints one pass/fail line; every tolerance
is pinned here, nothing deferred.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from wavekam import AngleFunction, SpaceTimeFunction, enumerate_clusters
from wavekam.blockop import (
    BlockOperator,
    PairedBlockOperator,
    block_decay_norm,
    compose,
    rank_one_blocks,
    smoothing_projector,
)
from wavekam.dynamics import (
    ConjugationChain,
    conjugacy_roundtrip,
    evolve_original,
    evolve_reduced,
    reduced_norm_drift,
    run_norms,
    stability_check,
)
from wavekam.hamiltonian import symplectic_check
from wavekam.kam import KamConfig, SylvesterOperator, kam_run, sylvester_solve
from wavekam.multiplier import FourierMultiplier
from wavekam.regularization import (
    WaveProblem,
    complexify_stage,
    decouple_step,
    reduce_diagonal,
    reparametrize_time,
    run_pipeline,
    symmetrize,
)
from wavekam.resonance import EigenData, classify_omega, measure_sweep

import oracles
from conftest import rng_for

D, NU, J_MAX, ELL_MAX = 2, 2, 6, 8
EPS_LIST = (1e-3, 5e-4)
# strongly non-resonant in [1, 2]^2 against the j_max = 6 spectrum
OMEGA_REF = np.array([1.66991901, 1.54742436])
N0_ACCEPT = 12  # covers the whole truncation: pure-quadratic steps from k = 0


def _report(num, name, ok, detail=""):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def desk_problem(eps):
    # b and c share angle support so the rank part carries an ell = 0
    # component: the diagonal response is then linear in eps
    a = AngleFunction.cosine(NU, ELL_MAX, (1, 0))
    b = SpaceTimeFunction.from_modes(
        NU, ELL_MAX, D, {((1, 0), (1, 0)): 0.5, ((-1, 0), (-1, 0)): 0.5}
    )
    c = SpaceTimeFunction.from_modes(
        NU, ELL_MAX, D, {((1, 0), (0, 1)): 0.5, ((-1, 0), (0, -1)): 0.5}
    )
    return WaveProblem(
        d=D, nu=NU, epsilon=eps, a=a, rank_pairs=[(b, c)],
        j_max=J_MAX, ell_max=ELL_MAX, q=8, M=4,
        gamma=eps**0.75 if eps > 0 else 0.01,
    )


def accept_config(problem, n0=N0_ACCEPT):
    return KamConfig(nu=NU, d=D, gamma=problem.gamma, n0=n0)


@pytest.fixture(scope="module")
def desk_runs():
    """pipeline + iteration at both eps values, with per-step maps kept."""
    out = {}
    for eps in EPS_LIST:
        p = desk_problem(eps)
        reg = run_pipeline(p, OMEGA_REF)
        cfg = accept_config(p)
        t0 = time.time()
        res = kam_run(
            reg.d_blocks(p.lattice), reg.r4, OMEGA_REF, p.lattice, cfg,
            keep_maps=True,
        )
        out[eps] = {
            "problem": p, "reg": reg, "cfg": cfg, "kam": res,
            "kam_seconds": time.time() - t0,
        }
    return out


# -------------------------------------------------------------------------
# criterion 1: norm-algebra suite, 100 seeded trials each, < 2 min
# -------------------------------------------------------------------------


def _stable(values, tol=0.2):
    med = float(np.median(values))
    return max(values) <= (1 + tol) * med and min(values) >= (1 - tol) * med, med


def test_criterion_1_norm_algebra():
    t_start = time.time()
    lat = enumerate_clusters(2, 3)
    nu, ell_max = 2, 2
    rng = rng_for("acc1")
    s, two_s0, s0 = 2.0, 3.0, 1.5
    comp_ratios, smooth_ratios, rank_ratios, mult_ratios = [], [], [], []
    # fixed support patterns, random coefficients: the seeded ensemble
    ells = list(itertools.product(range(-ell_max, ell_max + 1), repeat=nu))
    rank_ell_max = 3
    rank_ells = list(
        itertools.product(range(-rank_ell_max, rank_ell_max + 1), repeat=nu)
    )
    rank_modes_q = [(1, 0), (2, 1), (0, 2)]
    rank_modes_g = [(0, 1), (-1, 2), (2, 0)]
    for trial in range(100):
        ops = []
        for _ in range(2):
            op = BlockOperator(lat, nu, ell_max)
            for ell in ells:
                for ca in lat.clusters:
                    for cb in lat.clusters:
                        w = max(1.0, np.linalg.norm(ell), ca.alpha, cb.alpha) ** (-1.5)
                        mat = w * (
                            rng.standard_normal((ca.n_alpha, cb.n_alpha))
                            + 1j * rng.standard_normal((ca.n_alpha, cb.n_alpha))
                        )
                        oracles.set_block(op, ell, ca.alpha_sq, cb.alpha_sq, mat)
            ops.append(op)
        r, t = ops
        num = block_decay_norm(compose(r, t), s)
        den = (
            block_decay_norm(r, s) * block_decay_norm(t, two_s0)
            + block_decay_norm(r, two_s0) * block_decay_norm(t, s)
        )
        comp_ratios.append(num / den)
        _, high = smoothing_projector(r, 2)
        smooth_ratios.append(
            block_decay_norm(high, 1.0) / (2.0 ** (-2.0) * block_decay_norm(r, 3.0))
        )
        # unit-modulus coefficients pin the function norms exactly, so the
        # measured constants isolate the convolution/embedding factors
        phase = lambda: np.exp(2j * np.pi * rng.random())  # noqa: E731
        q = SpaceTimeFunction(nu, rank_ell_max, lat.d)
        g = SpaceTimeFunction(nu, rank_ell_max, lat.d)
        for j in rank_modes_q:
            for ell in rank_ells:
                q.set_coeff(ell, j, phase())
        for j in rank_modes_g:
            for ell in rank_ells:
                g.set_coeff(ell, j, phase())
        op = rank_one_blocks(q, g, lat)
        num = block_decay_norm(op, s)
        den = (
            g.sobolev_norm(s0) * q.sobolev_norm(s)
            + g.sobolev_norm(s + s0) * q.sobolev_norm(0.0)
        )
        rank_ratios.append(num / den)
        m_ord = -s - (lat.d - 1) / 2.0
        mult = FourierMultiplier(lat, nu, ell_max, m_ord)
        for i, cl in enumerate(lat.clusters):
            f = AngleFunction(nu, ell_max)
            for ell in ells:
                f[ell] = phase()
            mult.coeffs[i] = (f * cl.alpha**m_ord).coeffs.ravel()
        mult_ratios.append(
            block_decay_norm(mult.to_blocks(), s) / mult.norm(m_ord, s)
        )
    elapsed = time.time() - t_start
    oks, meds = zip(*(
        _stable(v) for v in (comp_ratios, smooth_ratios, rank_ratios, mult_ratios)
    ))
    # ratios must also respect the computable truncation bounds
    c_trunc = max(
        math.sqrt(c.n_alpha) / c.alpha ** ((lat.d - 1) / 2.0)
        for c in lat.clusters
    )
    bounds_ok = (
        max(smooth_ratios) <= 1.0 + 1e-12
        and max(rank_ratios) <= 1.0 + 1e-12
        and max(mult_ratios) <= c_trunc + 1e-12
    )
    ok = all(oks) and bounds_ok and elapsed < 120.0
    _report(
        1, "norm-algebra suite",
        ok,
        f"(medians {', '.join(f'{m:.3f}' for m in meds)}; {elapsed:.0f}s)",
    )


# -------------------------------------------------------------------------
# criterion 2: Sylvester oracle equivalence, 200 trials
# -------------------------------------------------------------------------


def test_criterion_2_sylvester_oracle():
    rng = rng_for("acc2")
    worst_rel, worst_norm = 0.0, 0.0
    for trial in range(200):
        na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.standard_normal((na, na)) + 1j * rng.standard_normal((na, na))
        b = rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))
        a, b = 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)
        sign = "-" if trial % 2 == 0 else "+"
        omega = rng.uniform(1.0, 2.0, 2)
        ell = tuple(int(x) for x in rng.integers(-4, 5, 2))
        syl = SylvesterOperator(ell, 1, 2, sign, a, b, omega)
        rhs = rng.standard_normal((na, nb)) + 1j * rng.standard_normal((na, nb))
        x, inv = sylvester_solve(syl, rhs)
        sgn = 1.0 if sign == "+" else -1.0
        m = (
            syl.omega_ell * np.eye(na * nb)
            + np.kron(a, np.eye(nb))
            + sgn * np.kron(np.eye(na), b.T)
        )
        x_oracle = np.linalg.solve(m, (-1j * rhs).reshape(-1)).reshape(na, nb)
        worst_rel = max(
            worst_rel,
            float(np.abs(x - x_oracle).max() / max(1e-30, np.abs(x_oracle).max())),
        )
        inv_direct = 1.0 / float(
            np.min(np.abs(oracles.sylvester_denominators(syl))))
        worst_norm = max(worst_norm, abs(inv - inv_direct) / inv_direct)
        inv_dense = 1.0 / float(np.min(np.abs(np.linalg.eigvalsh(m))))
        worst_norm = max(worst_norm, abs(inv - inv_dense) / inv_dense)
    ok = worst_rel < 1e-11 and worst_norm < 1e-12
    _report(2, "Sylvester oracle equivalence", ok,
            f"(rel {worst_rel:.2e}, norm {worst_norm:.2e})")


# -------------------------------------------------------------------------
# criterion 3: pipeline exactness
# -------------------------------------------------------------------------


def test_criterion_3_pipeline_exactness(desk_runs):
    p0 = desk_problem(0.0)
    res0 = run_pipeline(p0, OMEGA_REF)
    eps0_ok = (
        abs(res0.m - 1.0) <= 1e-14
        and (np.max(np.abs(res0.c)) if len(res0.c) else 0.0) <= 1e-13
        and res0.r4.decay_norm(0.0) <= 1e-13
    )
    reg = desk_runs[1e-3]["reg"]
    p = desk_runs[1e-3]["problem"]
    nonconst_ok = reg.diagnostics["w1_nonconstant"] < 1e-12
    # end-to-end conjugation residual: push(T) L3 - (i D_M T + R4) in paired blocks
    s3 = reg.stage3
    lat = p.lattice
    from wavekam.regularization import rank_terms_to_paired_blocks

    t_fwd_b = reg.t_fwd.to_paired_blocks()
    t_bwd_b = reg.t_bwd.to_paired_blocks()
    l3_b = s3.field.to_paired_blocks() + rank_terms_to_paired_blocks(
        s3.rank_terms, lat, p.nu, p.ell_max, scale=p.epsilon
    )
    pushed = t_bwd_b.compose(
        l3_b.compose(t_fwd_b) - t_fwd_b.omega_dphi(OMEGA_REF)
    )
    claim = BlockOperator(lat, p.nu, p.ell_max)
    zero = (0,) * p.nu
    for i, cl in enumerate(lat.clusters):
        oracles.set_block(claim, zero, cl.alpha_sq, cl.alpha_sq,
                          -1j * reg.mu[i] * np.eye(cl.n_alpha))
    claimed = PairedBlockOperator(claim, BlockOperator(lat, p.nu, p.ell_max)) + reg.r4
    residual = (pushed - claimed).decay_norm(0.0)
    ok = eps0_ok and nonconst_ok and residual < 1e-9
    _report(3, "pipeline exactness", ok,
            f"(eps0 {'exact' if eps0_ok else 'FAIL'}, conj {residual:.2e}, "
            f"nonconst {reg.diagnostics['w1_nonconstant']:.2e})")


# -------------------------------------------------------------------------
# criterion 4: quadratic convergence, residual targets, runtime
# -------------------------------------------------------------------------


def _fit_k(history, cfg, floor=1e-18):
    p = 2 * cfg.tau + 4 * cfg.dd + 1
    ks = []
    for h in history:
        r_next = h.get("r_low_next", 0.0)
        if h["tail_vanished"] and r_next > floor:
            ks.append(r_next * cfg.gamma / (h["N_k"] ** p * h["r_low"] ** 2))
    return ks


def test_criterion_4_kam_convergence(desk_runs):
    details = []
    ok = True
    kfits = {}
    for eps in EPS_LIST:
        run = desk_runs[eps]
        res = run["kam"]
        cfg = run["cfg"]
        seq = [h["r_low"] for h in res.history] + [res.residual]
        monotone = all(b < a for a, b in zip(seq, seq[1:]))
        converged = res.converged and res.state.step <= 8
        target = res.residual < 1e-12
        conj = res.conjugation_residual < 1e-8
        runtime = run["kam_seconds"] < 600.0
        ks = _fit_k(res.history, cfg)
        kfits[eps] = ks[0] if ks else math.nan
        ok = ok and monotone and converged and target and conj and runtime
        details.append(
            f"eps={eps:g}: steps={res.state.step}, r={res.residual:.1e}, "
            f"conj={res.conjugation_residual:.1e}, {run['kam_seconds']:.0f}s"
        )
    k_ratio = kfits[5e-4] / kfits[1e-3]
    k_ok = 0.5 <= k_ratio <= 1.5
    ok = ok and k_ok
    _report(4, "KAM convergence", ok,
            f"({'; '.join(details)}; K-ratio {k_ratio:.2f})")


# -------------------------------------------------------------------------
# criterion 5: structure preservation
# -------------------------------------------------------------------------


def test_criterion_5_structure_preservation(desk_runs):
    p = desk_runs[1e-3]["problem"]
    reg = desk_runs[1e-3]["reg"]
    res = desk_runs[1e-3]["kam"]
    lat = p.lattice
    worst_symp = 0.0
    # the symmetrization stage: real 2x2 multiplier matrix
    s1 = reg.stage1
    half = FourierMultiplier(lat, p.nu, p.ell_max, -0.5)
    halfinv = FourierMultiplier(lat, p.nu, p.ell_max, 0.5)
    for i, cl in enumerate(lat.clusters):
        half.coeffs[i] = (s1.beta * cl.alpha ** (-0.5)).coeffs.ravel()
        halfinv.coeffs[i] = (s1.beta_inv * cl.alpha**0.5).coeffs.ravel()
    zero = BlockOperator(lat, p.nu, p.ell_max)
    smap = oracles.BlockMatrix2(half.to_blocks(), zero.copy(), zero.copy(),
                                halfinv.to_blocks())
    worst_symp = max(worst_symp, oracles.real_symplectic_check(smap))
    # the complexification: C^T J C = i J exactly (Gamma-form constant map)
    cmat = np.array([[1, 1], [-1j, 1j]]) / math.sqrt(2)
    jmat = np.array([[0, 1], [-1, 0]])
    c_resid = float(np.abs(cmat.T @ jmat @ cmat - 1j * jmat).max())
    # each decoupling/diagonal transformation, re-collected stage by stage
    s2 = complexify_stage(p, s1)
    s3 = reparametrize_time(p, s1, s2, OMEGA_REF)
    fld = s3.field
    for n in range(p.M):
        fld, stage, _, _ = decouple_step(fld, n, s3.m, OMEGA_REF, p)
        worst_symp = max(worst_symp, symplectic_check(stage.forward.to_paired_blocks()))
    fld, stage, _, _, _, _ = reduce_diagonal(fld, s3.m, OMEGA_REF, p)
    worst_symp = max(worst_symp, symplectic_check(stage.forward.to_paired_blocks()))
    # every iteration map and the accumulated one
    for phi in res.state.step_maps:
        worst_symp = max(worst_symp, symplectic_check(phi.forward))
    worst_symp = max(worst_symp, symplectic_check(res.state.accumulated.forward))
    herm = res.state.hermitian_residual()
    # eigenvalue correction scaling
    vals = {}
    for eps in EPS_LIST:
        run = desk_runs[eps]
        state = run["kam"].state
        m = run["reg"].m
        worst = 0.0
        for cl in lat.clusters:
            lam = np.linalg.eigvalsh(state.d_blocks[cl.alpha_sq])
            worst = max(worst, cl.alpha * float(np.max(np.abs(lam - m * cl.alpha))))
        vals[eps] = worst
    bounded = vals[1e-3] / 1e-3 < 100.0
    ratio = vals[5e-4] / vals[1e-3]
    ok = (
        worst_symp <= 1e-10
        and c_resid <= 1e-15
        and herm <= 1e-12
        and bounded
        and 0.4 <= ratio <= 0.6
    )
    _report(5, "structure preservation", ok,
            f"(symplectic {worst_symp:.2e}, hermitian {herm:.2e}, "
            f"corr/eps {vals[1e-3] / 1e-3:.3e}, halving {ratio:.3f})")


# -------------------------------------------------------------------------
# criterion 6: measure scaling on a 10^4 grid
# -------------------------------------------------------------------------


def test_criterion_6_measure_scaling(desk_runs):
    t0 = time.time()
    p = desk_runs[1e-3]["problem"]
    reg = desk_runs[1e-3]["reg"]
    eig = EigenData.unperturbed(p.lattice, m=reg.m, c=list(reg.c))
    ax = np.linspace(1.0, 2.0, 100)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    samples = np.stack([m.ravel() for m in mesh], axis=-1)
    g0 = 0.02
    rows, fit = measure_sweep(
        samples, eig, [g0, g0 / 2, g0 / 4, g0 / 8], p.tau, p.dd, p.ell_max
    )
    elapsed = time.time() - t0
    fractions = [r["fraction"] for r in rows]
    monotone = all(a >= b for a, b in zip(fractions, fractions[1:]))
    ok = (
        len(samples) >= 10**4
        and not fit["degenerate"]
        and fit["r2"] >= 0.9
        and fit["slope"] > 0
        and monotone
        and elapsed < 600.0
    )
    _report(6, "measure scaling", ok,
            f"(fractions {', '.join(f'{f:.3f}' for f in fractions)}, "
            f"R2 {fit['r2']:.3f}, {elapsed:.0f}s)")


# -------------------------------------------------------------------------
# criterion 7: stability on >= 5 accepted omega + contrast run
# -------------------------------------------------------------------------


def test_criterion_7_stability():
    eps = 1e-3
    p = desk_problem(eps)
    cfg = accept_config(p, n0=4)
    rng = rng_for("acc7-omegas")
    eig_probe = EigenData.unperturbed(p.lattice)
    accepted = []
    rejected = None
    for _ in range(60):
        w = 1.0 + rng.random(2)
        rep = classify_omega(w, eig_probe, p.gamma, p.tau, p.dd, p.ell_max)
        if rep.accepted and len(accepted) < 5:
            accepted.append(w)
        elif not rep.accepted and rejected is None:
            rejected = (w, rep.certificates[0])
        if len(accepted) >= 5 and rejected is not None:
            break
    assert len(accepted) >= 5, "could not collect 5 accepted frequencies"
    s = 1.0
    v0 = {(1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.1, (0, -1): 0.1}
    psi0 = {(1, 1): 0.2, (-1, -1): 0.2, (1, 0): 0.25j, (-1, 0): -0.25j}
    horizon, dt = 30.0, 0.01
    sup_ratios, doubling_changes, drifts = [], [], []
    ok_all = True
    for w in accepted:
        reg = run_pipeline(p, w)
        out = kam_run(reg.d_blocks(p.lattice), reg.r4, w, p.lattice, cfg,
                      compute_conjugation_residual=False)
        ok_all = ok_all and out.converged
        times2, states2 = evolve_original(
            p, w, v0, psi0, 2 * horizon, dt, n_samples=129
        )
        half = times2 <= horizon + 1e-9
        stab_half = stability_check(run_norms(times2[half], states2[half],
                                              p.lattice, s))
        stab_full = stability_check(run_norms(times2, states2, p.lattice, s))
        sup_ratios.append(stab_full["sup_ratio"])
        doubling_changes.append(
            abs(stab_full["sup_ratio"] - stab_half["sup_ratio"])
            / stab_half["sup_ratio"]
        )
        # reduced-flow conservation for this run
        u0 = np.zeros(p.lattice.n_points, dtype=complex)
        for k in range(0, p.lattice.n_points, 9):
            u0[k] = complex(rng.standard_normal(), rng.standard_normal())
        snaps = evolve_reduced(out.state.d_blocks, p.lattice, u0,
                               np.linspace(0, 40, 11))
        drifts.append(reduced_norm_drift(snaps, p.lattice, 1.0))
    # contrast run at a classifier-rejected frequency, recorded
    w_bad, cert = rejected
    times, states = evolve_original(p, w_bad, v0, psi0, horizon, dt)
    contrast = stability_check(run_norms(times, states, p.lattice, s))
    ok = (
        ok_all
        and max(sup_ratios) < 10.0
        and max(doubling_changes) < 0.05
        and max(drifts) < 1e-12
        and contrast["sup_ratio"] > 0
    )
    _report(7, "stability", ok,
            f"(sup {max(sup_ratios):.3f}, doubling {max(doubling_changes):.4f}, "
            f"drift {max(drifts):.1e}, contrast sup {contrast['sup_ratio']:.3f} "
            f"at rejected omega cert={cert['kind']})")


# -------------------------------------------------------------------------
# criterion 8: exact micro-cases
# -------------------------------------------------------------------------


def test_criterion_8_micro_cases():
    # (a) eps = 0 single-mode wave over 10 periods
    p = desk_problem(0.0)
    j = (1, 0)
    horizon = 10 * 2 * math.pi
    times, states = evolve_original(
        p, OMEGA_REF, {j: 0.5, (-1, 0): 0.5}, {}, horizon, dt=0.005,
        n_samples=41,
    )
    wave_err = max(abs(x - 0.5 * math.cos(t))
                   for t, x in zip(times, states[:, p.lattice.index[j]]))
    # (b) single-mode reparametrization: a1 = 1 + delta cos(phi_1)
    delta = 1e-3
    cos1 = AngleFunction.cosine(NU, ELL_MAX, (1, 0))
    cossq, _ = cos1.product(cos1)
    a = AngleFunction.cosine(NU, ELL_MAX, (1, 0), 2 * delta) + cossq * delta**2
    p2 = WaveProblem(d=D, nu=NU, epsilon=1.0, a=a, rank_pairs=[],
                     j_max=2, ell_max=ELL_MAX, q=8, M=2, gamma=0.01)
    s1 = symmetrize(p2, OMEGA_REF)
    s2 = complexify_stage(p2, s1)
    s3 = reparametrize_time(p2, s1, s2, OMEGA_REF)
    want = oracles.angle_from_modes(
        NU, ELL_MAX,
        {(1, 0): delta / (2j * OMEGA_REF[0]),
         (-1, 0): -delta / (2j * OMEGA_REF[0])},
    )
    m_err = abs(s3.m - 1.0)
    alpha_err = (s3.alpha_fn - want).sobolev_norm(0.0)
    ok = wave_err < 1e-8 and m_err < 1e-12 and alpha_err < 1e-12
    _report(8, "exact micro-cases", ok,
            f"(wave {wave_err:.2e}, m {m_err:.2e}, alpha {alpha_err:.2e})")
