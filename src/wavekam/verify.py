"""Invariant suites behind the `verify` CLI verb.

Each suite returns rows (ok, name, value, threshold); the CLI renders them
TAP-style.  Thresholds are the same pinned tolerances as the test suite —
these are the machine-checkable statements of the construction's estimates
at desk scale.
"""

import hashlib
import itertools
import math

import numpy as np

from . import resonance as rs
from .blockop import (
    BlockOperator,
    PairedBlockOperator,
    block_decay_norm,
    compose,
    diagonal_part,
    operator_exponential,
    rank_one_blocks,
    smoothing_projector,
)
from .dynamics import evolve_original, evolve_reduced, reduced_norm_drift
from .hamiltonian import ExpMap, push_forward, symplectic_check
from .kam import KamConfig, SylvesterOperator, kam_run, sylvester_solve
from .multiplier import FourierMultiplier
from .regularization import (
    WaveProblem,
    run_pipeline,
    symmetrize,
)
from .spectrum import (
    AngleFunction,
    SpaceTimeFunction,
    enumerate_clusters,
    ell_box,
    omega_dphi_inverse,
)

SUITES = ("norms", "hamiltonian", "pipeline", "kam", "measure", "dynamics",
          "all")

# strongly non-resonant against the small verification spectrum
VERIFY_OMEGA = np.array([1.66991901, 1.54742436])


def rng_for(*tags):
    """Counter-based Philox generator keyed by a stable hash of the tags."""
    digest = hashlib.sha256(repr(tags).encode()).digest()
    return np.random.Generator(
        np.random.Philox(key=int.from_bytes(digest[:8], "little"))
    )


def _row(name, value, threshold, ok=None):
    ok = (value <= threshold) if ok is None else ok
    return {"ok": bool(ok), "name": name, "value": float(value),
            "threshold": float(threshold)}


def _random_block(lattice, nu, ell_max, rng, density=1.0, decay=1.5,
                  support=None):
    blocks = {}
    L = ell_max if support is None else support
    for ell in map(tuple, ell_box(nu, L).tolist()):
        for ca in lattice.clusters:
            for cb in lattice.clusters:
                if rng.random() > density:
                    continue
                w = max(1.0, np.linalg.norm(ell), ca.alpha, cb.alpha) ** (-decay)
                mat = w * (
                    rng.standard_normal((ca.n_alpha, cb.n_alpha))
                    + 1j * rng.standard_normal((ca.n_alpha, cb.n_alpha))
                )
                blocks[(ell, ca.alpha_sq, cb.alpha_sq)] = mat
    return BlockOperator(lattice, nu, ell_max, blocks)


def _random_space_time(lattice, nu, ell_max, rng, n_j=3, support=1):
    pts = list(lattice.all_points())
    u = SpaceTimeFunction(nu, ell_max, lattice.d)
    for k in rng.permutation(len(pts))[:n_j]:
        j = pts[int(k)]
        for ell in ell_box(nu, support).tolist():
            u.set_coeff(ell, j, rng.standard_normal() + 1j * rng.standard_normal())
    return u


def _verify_problem(eps, seed=0):
    nu, d, ell_max, j_max = 2, 2, 4, 2
    a = AngleFunction.cosine(nu, ell_max, (1, 0))
    b = SpaceTimeFunction.from_modes(
        nu, ell_max, d, {((1, 0), (1, 0)): 0.5, ((-1, 0), (-1, 0)): 0.5}
    )
    c = SpaceTimeFunction.from_modes(
        nu, ell_max, d, {((0, 1), (0, 1)): 0.5, ((0, -1), (0, -1)): 0.5}
    )
    return WaveProblem(d=d, nu=nu, epsilon=eps, a=a, rank_pairs=[(b, c)],
                       j_max=j_max, ell_max=ell_max, q=8, M=3, gamma=0.01)


# ---------------------------------------------------------------------------


def suite_norms(seed=0, trials=20):
    rows = []
    lat = enumerate_clusters(2, 3)
    rng = rng_for(seed, "norms")
    # partition and gap
    brute = sum(
        1
        for j in itertools.product(range(-3, 4), repeat=2)
        if 0 < sum(x * x for x in j) <= 9
    )
    rows.append(_row("lattice-partition", abs(lat.n_points - brute), 0.0,
                     ok=lat.n_points == brute))
    rows.append(_row("cluster-gap-positive", -lat.cluster_gap_constant(), 0.0,
                     ok=lat.cluster_gap_constant() > 0))
    # omega_dphi round trip
    h = AngleFunction(2, 4)
    for _ in range(10):
        ell = tuple(int(x) for x in rng.integers(-4, 5, 2))
        if any(ell):
            h[ell] = rng.standard_normal() + 1j * rng.standard_normal()
    got = omega_dphi_inverse(h, VERIFY_OMEGA).omega_dphi(VERIFY_OMEGA)
    rows.append(_row("omega-dphi-roundtrip",
                     got.distance(h) / max(1.0, h.linf_bound()), 1e-13))
    # composition interpolation stability
    s, two_s0 = 2.0, 3.0
    ratios = []
    for _ in range(trials):
        r = _random_block(lat, 2, 2, rng)
        t = _random_block(lat, 2, 2, rng)
        num = block_decay_norm(compose(r, t), s)
        den = (
            block_decay_norm(r, s) * block_decay_norm(t, two_s0)
            + block_decay_norm(r, two_s0) * block_decay_norm(t, s)
        )
        ratios.append(num / den)
    med = float(np.median(ratios))
    spread = max(max(ratios) / med, med / min(ratios))
    rows.append(_row("composition-interpolation-stability", spread, 1.2))
    # smoothing inequality
    worst = 0.0
    for _ in range(trials):
        op = _random_block(lat, 2, 3, rng, density=0.6)
        for N in (1, 2):
            _, high = smoothing_projector(op, N)
            for b in (1.0, 2.0):
                lhs = block_decay_norm(high, 1.0)
                rhs = N ** (-b) * block_decay_norm(op, 1.0 + b)
                worst = max(worst, lhs - rhs)
    rows.append(_row("smoothing-inequality", worst, 1e-12))
    # finite-rank decay bound
    worst = 0.0
    s0 = 1.5
    for _ in range(trials):
        q = _random_space_time(lat, 2, 3, rng)
        g = _random_space_time(lat, 2, 3, rng)
        op = rank_one_blocks(q, g, lat)
        num = block_decay_norm(op, s)
        den = g.sobolev_norm(s0) * q.sobolev_norm(s) + \
            g.sobolev_norm(s + s0) * q.sobolev_norm(0.0)
        worst = max(worst, num / den)
    rows.append(_row("finite-rank-decay-constant", worst, 1.0 + 1e-12))
    # multiplier-to-block comparison
    c_trunc = max(
        math.sqrt(c.n_alpha) / c.alpha ** ((lat.d - 1) / 2.0)
        for c in lat.clusters
    )
    worst = 0.0
    for _ in range(trials):
        m = -s - (lat.d - 1) / 2.0
        r = FourierMultiplier(lat, 2, 2, m)
        for i, c in enumerate(lat.clusters):
            f = r.row(i)
            for _ in range(4):
                ell = tuple(int(x) for x in rng.integers(-2, 3, 2))
                f[ell] = rng.standard_normal() + 1j * rng.standard_normal()
        r = r.scaled([c.alpha**m for c in lat.clusters])
        lhs = block_decay_norm(r.to_blocks(), s)
        rhs = c_trunc * r.norm(m, s)
        worst = max(worst, lhs / rhs)
    rows.append(_row("multiplier-block-comparison", worst, 1.0 + 1e-12))
    # projector exactness and involutions
    op = _random_block(lat, 2, 2, rng, density=0.5)
    low, high = smoothing_projector(op, 2)
    rows.append(_row("projector-partition", ((low + high) - op).hs_total(), 0.0,
                     ok=((low + high) - op).hs_total() == 0.0))
    rows.append(_row("transpose-involution",
                     (op.transpose().transpose() - op).hs_total(), 1e-15))
    rows.append(_row("diag-projector-commute",
                     (diagonal_part(smoothing_projector(op, 2)[0])
                      - smoothing_projector(diagonal_part(op), 2)[0]).hs_total(),
                     1e-15))
    return rows


def suite_hamiltonian(seed=0):
    rows = []
    lat = enumerate_clusters(2, 2)
    rng = rng_for(seed, "hamiltonian")
    ident = PairedBlockOperator.identity(lat, 2, 1)
    # iS = (i I, 0; 0, -i I) passes Phi^sigma Phi = I as J passes Phi^T J Phi = J
    i_s = PairedBlockOperator(ident.r1 * 1j, ident.r2)
    rows.append(_row("symplectic-identity", symplectic_check(ident), 1e-14))
    rows.append(_row("symplectic-J", symplectic_check(i_s), 1e-14))
    r1 = _random_block(lat, 2, 6, rng, density=0.4, support=1)
    r2 = _random_block(lat, 2, 6, rng, density=0.4, support=1)
    psi = PairedBlockOperator(r1, r2)
    psi = (psi - psi.sigma()) * 0.5
    psi = psi * (0.1 / psi.decay_norm(0.0))
    phi = operator_exponential(psi)
    rows.append(_row("symplectic-exp-hamiltonian", symplectic_check(phi), 1e-10))
    x = PairedBlockOperator(r2, r1)
    x = (x - x.sigma()) * 0.5
    pushed = push_forward(x, ExpMap.from_generator(psi), VERIFY_OMEGA)
    rows.append(_row(
        "push-forward-preserves-hamiltonian",
        pushed.hamiltonian_residual(0.0) / max(1.0, pushed.decay_norm(0.0)),
        1e-10,
    ))
    return rows


def suite_pipeline(seed=0):
    rows = []
    p0 = _verify_problem(0.0)
    res0 = run_pipeline(p0, VERIFY_OMEGA)
    rows.append(_row("eps0-m-is-1", abs(res0.m - 1.0), 1e-14))
    rows.append(_row("eps0-c-is-0",
                     float(np.max(np.abs(res0.c))) if len(res0.c) else 0.0,
                     1e-13))
    rows.append(_row("eps0-r4-is-0", res0.r4.decay_norm(0.0), 1e-13))
    p = _verify_problem(2e-3)
    s1 = symmetrize(p, VERIFY_OMEGA)
    one_plus = p.a * p.epsilon
    one_plus[(0, 0)] = one_plus[(0, 0)] + 1.0
    b2, _ = s1.beta.product(s1.beta)
    b4, _ = b2.product(b2)
    lhs, _ = b4.product(one_plus)
    one = AngleFunction.constant(2, 4, 1.0)
    rows.append(_row("beta-defining-identity", (lhs - one).sobolev_norm(0.0),
                     1e-10))
    res = run_pipeline(p, VERIFY_OMEGA)
    rows.append(_row("highest-order-nonconstant",
                     res.diagnostics["w1_nonconstant"], 1e-12))
    rows.append(_row("diagonal-fluctuation",
                     res.diagnostics["diagonal_fluctuation"], 1e-12))
    worst_hom = max(d["homological_residual"]
                    for d in res.diagnostics["decouple"])
    rows.append(_row("decoupling-homological-residual", worst_hom, 1e-13))
    rows.append(_row("r4-hamiltonian",
                     res.diagnostics["hamiltonian_residual"]
                     / max(1.0, res.r4.decay_norm(0.0)), 1e-10))
    rows.append(_row("stage-map-symplectic",
                     symplectic_check(res.t_fwd.to_paired_blocks()), 1e-10))
    return rows


def suite_kam(seed=0, trials=20):
    rows = []
    lat = enumerate_clusters(2, 2)
    rng = rng_for(seed, "kam")
    # sylvester vs dense Kronecker
    worst_x, worst_norm = 0.0, 0.0
    for _ in range(trials):
        na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((na, na)) + 1j * rng.standard_normal((na, na))
        b = rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))
        a, b = 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)
        sign = "-" if rng.random() < 0.5 else "+"
        syl = SylvesterOperator((1, -2), 1, 2, sign, a, b,
                                np.array([0.3, 0.7]))
        rhs = rng.standard_normal((na, nb)) + 1j * rng.standard_normal((na, nb))
        x, inv = sylvester_solve(syl, rhs)
        sgn = 1.0 if sign == "+" else -1.0
        m = (syl.omega_ell * np.eye(na * nb) + np.kron(a, np.eye(nb))
             + sgn * np.kron(np.eye(na), b.T))
        xo = np.linalg.solve(m, (-1j * rhs).reshape(-1)).reshape(na, nb)
        inv_o = 1.0 / np.min(np.abs(np.linalg.eigvalsh(m)))
        worst_x = max(worst_x,
                      float(np.abs(x - xo).max() / max(1.0, np.abs(xo).max())))
        worst_norm = max(worst_norm, abs(inv - inv_o) / inv_o)
    rows.append(_row("sylvester-kronecker-oracle", worst_x, 1e-11))
    rows.append(_row("sylvester-inverse-norm", worst_norm, 1e-12))
    # toy run
    r1 = _random_block(lat, 2, 4, rng, density=0.4, support=1)
    r2 = _random_block(lat, 2, 4, rng, density=0.4, support=1)
    rem = PairedBlockOperator(r1, r2)
    rem = (rem - rem.sigma()) * 0.5
    rem = rem * (1e-4 / rem.decay_norm(0.0))
    blocks = {c.alpha_sq: c.alpha * np.eye(c.n_alpha, dtype=complex)
              for c in lat.clusters}
    cfg = KamConfig(nu=2, d=2, gamma=1e-3**0.75)
    out = kam_run(blocks, rem, VERIFY_OMEGA, lat, cfg)
    rows.append(_row("kam-converges", 0.0 if out.converged else 1.0, 0.0,
                     ok=out.converged))
    rows.append(_row("kam-residual", out.residual, cfg.target_residual))
    rows.append(_row("kam-conjugation-residual", out.conjugation_residual,
                     1e-8))
    rows.append(_row("kam-hermitian-diagonal",
                     out.state.hermitian_residual(), 1e-12))
    rows.append(_row("kam-map-symplectic",
                     symplectic_check(out.state.accumulated.forward), 1e-10))
    return rows


def suite_measure(seed=0):
    rows = []
    lat = enumerate_clusters(2, 2)
    eig = rs.EigenData.unperturbed(lat)
    rng = rng_for(seed, "measure")
    samples = 1.0 + rng.random((60, 2))
    agree = all(
        rs.classify_omega(w, eig, 0.05, 2.0, 1.0, 2, prune=True).accepted
        == rs.classify_omega(w, eig, 0.05, 2.0, 1.0, 2, prune=False).accepted
        for w in samples[:25]
    )
    rows.append(_row("pruning-soundness", 0.0 if agree else 1.0, 0.0, ok=agree))
    mask = rs.classify_grid(samples, eig, 0.05, 2.0, 1.0, 2)
    scalar = np.array([
        rs.classify_omega(w, eig, 0.05, 2.0, 1.0, 2, prune=False).accepted
        for w in samples
    ])
    rows.append(_row("grid-scalar-agreement",
                     float(np.sum(mask != scalar)), 0.0,
                     ok=bool(np.all(mask == scalar))))
    small = rs.classify_grid(samples, eig, 0.01, 2.0, 1.0, 2)
    large = rs.classify_grid(samples, eig, 0.05, 2.0, 1.0, 2)
    mono = not np.any(large[~small])
    rows.append(_row("exclusion-monotone-in-gamma", 0.0 if mono else 1.0, 0.0,
                     ok=mono))
    big = 1.0 + rng.random((2000, 2))
    _, fit = rs.measure_sweep(big, eig, [0.01, 0.005, 0.0025, 0.00125],
                              2.0, 1.0, 2)
    rows.append(_row("sweep-linear-fit-r2", -fit["r2"], -0.9,
                     ok=fit["r2"] >= 0.9))
    return rows


def suite_dynamics(seed=0):
    rows = []
    p = _verify_problem(0.0)
    j = (1, 0)
    horizon = 10 * 2 * math.pi
    times, states = evolve_original(p, VERIFY_OMEGA, {j: 0.5, (-1, 0): 0.5},
                                    {}, horizon, dt=0.005, n_samples=21)
    lat = p.lattice
    worst = max(abs(x - 0.5 * math.cos(t))
                for t, x in zip(times, states[:, lat.index[j]]))
    rows.append(_row("eps0-single-mode-exact", worst, 1e-8))
    rng = rng_for(seed, "dynamics")
    blocks = {}
    for c in lat.clusters:
        m = rng.standard_normal((c.n_alpha, c.n_alpha)) \
            + 1j * rng.standard_normal((c.n_alpha, c.n_alpha))
        blocks[c.alpha_sq] = c.alpha * np.eye(c.n_alpha) + 0.01 * (m + m.conj().T)
    u0 = np.zeros(lat.n_points, dtype=complex)
    for k in rng.integers(0, lat.n_points, 5):
        u0[k] = complex(rng.standard_normal(), rng.standard_normal())
    snaps = evolve_reduced(blocks, lat, u0, np.linspace(0, 40, 11))
    rows.append(_row("reduced-flow-norm-drift",
                     reduced_norm_drift(snaps, lat, 1.0), 1e-12))
    return rows


def run_suite(name, seed=0):
    table = {
        "norms": [suite_norms],
        "hamiltonian": [suite_hamiltonian],
        "pipeline": [suite_pipeline],
        "kam": [suite_kam],
        "measure": [suite_measure],
        "dynamics": [suite_dynamics],
    }
    if name == "all":
        fns = [f for key in table for f in table[key]]
    elif name in table:
        fns = table[name]
    else:
        raise KeyError(name)
    rows = []
    for fn in fns:
        rows.extend(fn(seed=seed))
    return rows


def tap_render(rows):
    lines = [f"1..{len(rows)}"]
    for i, r in enumerate(rows, 1):
        status = "ok" if r["ok"] else "not ok"
        lines.append(
            f"{status} {i} - {r['name']} "
            f"(value={r['value']:.3e}, threshold={r['threshold']:.3e})"
        )
    return "\n".join(lines)
