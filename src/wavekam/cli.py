"""Command-line orchestrator: run / verify / sweep / dump.

Configuration is one YAML key-tree validated against CONFIG_SCHEMA; CLI
flags override config keys (flag > config > default).  All randomness flows
from a single seed through counter-based Philox streams keyed per
sub-experiment, so every artifact is reproducible from (config, seed).

Exit codes: 0 success; 2 config/schema violation; 3 numerical failure (a
certificate file is written next to the outputs).
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import WavekamError
from .kam import KamConfig, final_eigenvalues, kam_run
from .regularization import WaveProblem, kirchhoff_linearization, run_pipeline
from .dynamics import (
    ConjugationChain,
    conjugacy_roundtrip,
    evolve_original,
    run_norms,
    stability_check,
)
from .resonance import EigenData, classify_omega, measure_sweep
from .reporting import (
    dump_blocks,
    dump_eigenvalues,
    dump_function,
    dump_lattice,
    dump_multiplier,
    write_certificates,
    write_convergence_table,
    write_json,
    write_norm_report,
    write_stage_diagnostics,
    write_sweep_table,
    write_trajectory,
)
from .spectrum import (AngleFunction, SpaceTimeFunction, default_s0,
                       enumerate_clusters)
from .verify import SUITES, rng_for, run_suite, tap_render

PHASES = ("pipeline", "kam", "measure", "dynamics")

_mode_row = {
    "type": "object",
    "properties": {
        "ell": {"type": "array", "items": {"type": "integer"}},
        "j": {"type": "array", "items": {"type": "integer"}},
        "re": {"type": "number"},
        "im": {"type": "number"},
    },
    "required": ["ell"],
    "additionalProperties": False,
}

_angle_spec = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["zero", "cosine", "modes", "random"]},
        "ell": {"type": "array", "items": {"type": "integer"}},
        "amplitude": {"type": "number"},
        "mean": {"type": "number"},
        "modes": {"type": "array", "items": _mode_row},
        "n_modes": {"type": "integer", "minimum": 1},
        "support": {"type": "integer", "minimum": 0},
        "scale": {"type": "number"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_space_time_spec = {
    "type": "object",
    "properties": {
        "modes": {"type": "array", "items": _mode_row},
        "random": {
            "type": "object",
            "properties": {
                "n_j": {"type": "integer", "minimum": 1},
                "support": {"type": "integer", "minimum": 0},
                "scale": {"type": "number"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "problem": {
            "type": "object",
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "nu": {"type": "integer", "minimum": 1},
                "epsilon": {"type": "number", "minimum": 0},
                "a": _angle_spec,
                "rank_pairs": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {"b": _space_time_spec,
                                       "c": _space_time_spec},
                        "required": ["b", "c"],
                        "additionalProperties": False,
                    },
                },
                "kirchhoff_v0": _space_time_spec,
                "seed": {"type": "integer"},
            },
            "required": ["d", "nu", "epsilon"],
            "additionalProperties": False,
        },
        "numerics": {
            "type": "object",
            "properties": {
                "j_max": {"type": "integer", "minimum": 1},
                "ell_max": {"type": "integer", "minimum": 1},
                "q": {"type": "integer", "minimum": 2},
                "M": {"type": "integer", "minimum": 1},
                "gamma": {"type": ["number", "null"]},
                "tau": {"type": ["number", "null"]},
                "dd": {"type": ["number", "null"]},
                "n0": {"type": "integer", "minimum": 2},
                "max_steps": {"type": "integer", "minimum": 1},
                "target_residual": {"type": "number"},
            },
            "required": ["j_max", "ell_max"],
            "additionalProperties": False,
        },
        "run": {
            "type": "object",
            "properties": {
                "phases": {"type": "array",
                           "items": {"enum": list(PHASES)}},
                "omega": {"type": "array", "items": {"type": "number"}},
                "omegas": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "omega_grid": {
                    "type": "object",
                    "properties": {
                        "box": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                        "counts": {"type": "array",
                                   "items": {"type": "integer"}},
                    },
                    "required": ["box", "counts"],
                    "additionalProperties": False,
                },
                "gamma_list": {"type": "array", "items": {"type": "number"}},
                "horizon": {"type": "number"},
                "dt": {"type": "number"},
                "s_list": {"type": "array", "items": {"type": "number"}},
                "contrast_omega": {"type": "array",
                                   "items": {"type": "number"}},
            },
            "required": ["omega"],
            "additionalProperties": False,
        },
        "output": {"type": "string"},
    },
    "required": ["problem", "numerics", "run"],
    "additionalProperties": False,
}


@functools.cache
def _config_validator():
    """One validator for CONFIG_SCHEMA; the schema itself is checked by a test."""
    from jsonschema.validators import validator_for

    return validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def load_config(path):
    import yaml
    from jsonschema.exceptions import best_match

    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            mark = getattr(err, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark else ""
            raise ConfigError(f"YAML parse error{where}: {err}")
    err = best_match(_config_validator().iter_errors(cfg))
    if err is not None:
        path_str = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config key '{path_str}': {err.message}")
    _check_sizes(cfg)
    return cfg


class ConfigError(Exception):
    pass


def _check_sizes(cfg):
    """What the schema cannot say: lengths against nu and d, ell inside the
    box |ell|_inf <= ell_max, j nonzero inside the lattice |j| <= j_max."""
    prob, run, num = cfg["problem"], cfg["run"], cfg["numerics"]
    nu, d, ell_max, j_max = prob["nu"], prob["d"], num["ell_max"], num["j_max"]

    def fail(key, message):
        raise ConfigError(f"config key '{key}': {message}")

    def length(key, v, n, name):
        if len(v) != n:
            fail(key, f"has {len(v)} entries, expected {name} = {n}")

    def ell(key, v):
        length(key, v, nu, "nu")
        if max(map(abs, v)) > ell_max:
            fail(key, f"{v} lies outside |ell|_inf <= ell_max = {ell_max}")

    def support(key, spec):
        if spec.get("support", 0) > ell_max:
            fail(f"{key}/support", f"{spec['support']} exceeds ell_max = {ell_max}")

    a = prob.get("a", {})
    for need, kind in (("ell", "cosine"), ("modes", "modes")):
        if a.get("kind") == kind and need not in a:
            fail(f"problem/a/{need}", f"required by kind {kind}")
    if "ell" in a:
        ell("problem/a/ell", a["ell"])
    for k, row in enumerate(a.get("modes", [])):
        ell(f"problem/a/modes/{k}/ell", row["ell"])
    support("problem/a", a)
    spaces = [(f"problem/rank_pairs/{i}/{x}", pair[x])
              for i, pair in enumerate(prob.get("rank_pairs", [])) for x in "bc"]
    if "kirchhoff_v0" in prob:
        spaces.append(("problem/kirchhoff_v0", prob["kirchhoff_v0"]))
    for key, spec in spaces:
        for k, row in enumerate(spec.get("modes", [])):
            ell(f"{key}/modes/{k}/ell", row["ell"])
            j = row.get("j", [])
            length(f"{key}/modes/{k}/j", j, d, "d")
            if not 0 < sum(x * x for x in j) <= j_max * j_max:
                fail(f"{key}/modes/{k}/j",
                     f"{j} is 0 or outside |j| <= j_max = {j_max}")
        support(f"{key}/random", spec.get("random", {}))
    length("run/omega", run["omega"], nu, "nu")
    for k, w in enumerate(run.get("omegas") or []):
        length(f"run/omegas/{k}", w, nu, "nu")
    if run.get("contrast_omega"):
        length("run/contrast_omega", run["contrast_omega"], nu, "nu")
    if "omega_grid" in run:
        for key in ("box", "counts"):
            length(f"run/omega_grid/{key}", run["omega_grid"][key], nu, "nu")


def _add_conjugate_pair(add, v, *key):
    """add(*key, v), then add conj(v) at the negated key: a real function's
    coefficient at (ell, j) and its partner at (-ell, -j)."""
    add(*key, v)
    add(*(tuple(-x for x in k) for k in key), np.conj(v))


def _build_angle(spec, nu, ell_max, rng):
    kind = spec["kind"]
    if kind == "zero":
        return AngleFunction.zero(nu, ell_max)
    if kind == "cosine":
        f = AngleFunction.cosine(nu, ell_max, spec["ell"],
                                 spec.get("amplitude", 1.0))
        if spec.get("mean"):
            f[(0,) * nu] = f[(0,) * nu] + spec["mean"]
        return f
    f = AngleFunction.zero(nu, ell_max)

    def add(ell, v):
        f[ell] = f[ell] + v

    if kind == "modes":
        for row in spec["modes"]:
            v = complex(row.get("re", 0.0), row.get("im", 0.0))
            _add_conjugate_pair(add, v, tuple(row["ell"]))
        return f
    if kind == "random":
        support = spec.get("support", 1)
        scale = spec.get("scale", 1.0)
        for _ in range(spec.get("n_modes", 3)):
            ell = tuple(int(x) for x in rng.integers(-support, support + 1, nu))
            v = scale * complex(rng.standard_normal(), rng.standard_normal())
            _add_conjugate_pair(add, v, ell)
        return f
    raise ConfigError(f"unknown angle function kind {kind!r}")


def _build_space_time(spec, nu, ell_max, d, lattice, rng):
    u = SpaceTimeFunction(nu, ell_max, d)

    def add(ell, j, v):
        u.set_coeff(ell, j, u.coeff(ell, j) + v)

    for row in spec.get("modes", []):
        v = complex(row.get("re", 0.0), row.get("im", 0.0))
        _add_conjugate_pair(add, v, tuple(row["ell"]), tuple(row["j"]))
    if "random" in spec:
        r = spec["random"]
        pts = list(lattice.all_points())
        support = r.get("support", 1)
        scale = r.get("scale", 1.0)
        for k in rng.permutation(len(pts))[: r.get("n_j", 2)]:
            j = pts[int(k)]
            for _ in range(2):
                ell = tuple(int(x) for x in
                            rng.integers(-support, support + 1, nu))
                v = scale * complex(rng.standard_normal(),
                                    rng.standard_normal())
                _add_conjugate_pair(add, v, ell, j)
    return u


def build_problem(cfg, seed):
    prob = cfg["problem"]
    num = cfg["numerics"]
    nu, d = prob["nu"], prob["d"]
    ell_max, j_max = num["ell_max"], num["j_max"]
    eps = prob["epsilon"]
    gamma = num.get("gamma")
    if gamma is None:
        gamma = eps**0.75 if eps > 0 else 0.01
    lattice = enumerate_clusters(d, j_max)
    kwargs = dict(
        d=d, nu=nu, epsilon=eps, j_max=j_max, ell_max=ell_max,
        q=num.get("q", 8), M=num.get("M"), gamma=gamma, tau=num.get("tau"),
        dd=num.get("dd"), lattice=lattice,
    )
    if "kirchhoff_v0" in prob:
        rng = rng_for(seed, "kirchhoff-v0")
        v0 = _build_space_time(prob["kirchhoff_v0"], nu, ell_max, d, lattice,
                               rng)
        return kirchhoff_linearization(v0, kwargs)
    rng = rng_for(seed, "coefficient-a")
    a = _build_angle(prob.get("a", {"kind": "zero"}), nu, ell_max, rng)
    pairs = []
    for i, pair in enumerate(prob.get("rank_pairs", [])):
        rng_b = rng_for(seed, "rank-b", i)
        rng_c = rng_for(seed, "rank-c", i)
        pairs.append(
            (
                _build_space_time(pair["b"], nu, ell_max, d, lattice, rng_b),
                _build_space_time(pair["c"], nu, ell_max, d, lattice, rng_c),
            )
        )
    return WaveProblem(a=a, rank_pairs=pairs, **kwargs)


def kam_config_for(problem, cfg):
    """KamConfig from the problem and the keys the config sets; KamConfig
    holds every default."""
    num = cfg["numerics"]
    keys = ("tau", "n0", "max_steps", "target_residual")
    return KamConfig(nu=problem.nu, d=problem.d, gamma=problem.gamma,
                     dd=problem.dd, **{k: num[k] for k in keys if k in num})


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def phase_pipeline(problem, omega, outdir, summary):
    res = run_pipeline(problem, omega)
    write_stage_diagnostics(outdir / "pipeline_stages.csv",
                            res.transformation_log)
    write_json(outdir / "transformation_log.json", res.transformation_log)
    dump_blocks(outdir / "r4_blocks.json", res.r4.r1, "r4-top-left")
    dump_multiplier(outdir / "r4_offdiagonal_symbol.json",
                    res.r4_multiplier.r2)
    write_norm_report(
        outdir / "r4_norms.csv",
        [
            (s, res.r4.decay_norm(s), res.r4.meta.get("truncation_loss", 0.0))
            for s in (0.0, 2.0, default_s0(problem.nu, problem.d) * 2.0)
        ],
    )
    from .hamiltonian import symplectic_check

    predicates = {
        "r4_hamiltonian_residual": res.diagnostics["hamiltonian_residual"],
        "stage_map_symplectic_residual": symplectic_check(
            res.t_fwd.to_paired_blocks()
        ),
    }
    write_json(outdir / "predicate_report.json", predicates)
    summary["pipeline"] = {
        "m": res.m,
        "r4_norm_s0": res.diagnostics["r4_decay_norm_s0"],
        "w1_nonconstant": res.diagnostics["w1_nonconstant"],
        "diagonal_fluctuation": res.diagnostics["diagonal_fluctuation"],
        **predicates,
    }
    return res


def _kam_worker(payload):
    """Per-omega reduction + iteration: the regularization data depends on omega."""
    problem, kcfg, omega, reg = payload
    if reg is None:  # not already computed for this omega
        reg = run_pipeline(problem, np.asarray(omega, float))
    out = kam_run(
        reg.d_blocks(problem.lattice), reg.r4, np.asarray(omega, float),
        problem.lattice, kcfg,
    )
    return reg, out


def phase_kam(problem, cfg, omegas, outdir, summary, threads=1, reg=None):
    """KAM per omega, reusing ``reg``, the pipeline at run.omega, there."""
    kcfg = kam_config_for(problem, cfg)
    payloads = [(problem, kcfg, omega,
                 reg if np.array_equal(omega, cfg["run"]["omega"]) else None)
                for omega in omegas]
    # fork starts every worker at once: never more than there is work or cores
    workers = min(threads, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        # workers only compute; all files are written by the orchestrator
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_kam_worker, payloads))
    else:
        results = [_kam_worker(p) for p in payloads]
    for i, (reg_i, out) in enumerate(results):
        write_convergence_table(
            outdir / f"kam_convergence_{i}.csv", i, out.history,
            out.residual, out.verdict,
        )
        if out.converged:
            table = final_eigenvalues(out.state, problem.lattice, reg_i.m)
            dump_eigenvalues(outdir / f"d_infinity_{i}.json", table, reg_i.m)
    summary["kam"] = [
        {
            "omega_index": i,
            "verdict": out.verdict,
            "steps": out.state.step,
            "residual": out.residual,
            "conjugation_residual": out.conjugation_residual,
        }
        for i, (_, out) in enumerate(results)
    ]
    return results


def phase_measure(problem, cfg, reg, outdir, summary, gamma_list=None):
    run = cfg["run"]
    grid_spec = run.get("omega_grid")
    if grid_spec is None:
        raise ConfigError("measure phase requires run.omega_grid")
    axes = [np.linspace(lo, hi, n)
            for (lo, hi), n in zip(grid_spec["box"], grid_spec["counts"])]
    mesh = np.meshgrid(*axes, indexing="ij")
    samples = np.stack([m.ravel() for m in mesh], axis=-1)
    gammas = gamma_list or run.get("gamma_list")
    if not gammas:
        g0 = 8 * problem.gamma
        gammas = [g0, g0 / 2, g0 / 4, g0 / 8]
    eig = EigenData.unperturbed(problem.lattice, m=reg.m, c=reg.c)
    rows, fit = measure_sweep(
        samples, eig, gammas, problem.tau, problem.dd, problem.ell_max
    )
    write_sweep_table(outdir / "measure_sweep.csv", rows)
    # certificates for a small prefix of the grid at the largest gamma
    reports = classify_omega(samples[:64], eig, max(gammas), problem.tau,
                             problem.dd, problem.ell_max, first_only=False)
    write_certificates(outdir / "certificates.jsonl", reports)
    summary["measure"] = {"rows": rows, "fit": fit}
    return rows, fit


def phase_dynamics(problem, cfg, kam_results, omegas, outdir, summary,
                   seed=0):
    run = cfg["run"]
    horizon = run.get("horizon", 10.0)
    dt = run.get("dt", 0.004)
    s_list = run.get("s_list", [1.0])
    s = float(s_list[0])
    rng = rng_for(seed, "dynamics-initial")
    pts = list(problem.lattice.all_points())
    v0, psi0 = {}, {}

    def adder(coeffs):
        def add(j, v):
            coeffs[j] = coeffs.get(j, 0j) + v
        return add

    for k in rng.permutation(len(pts))[:4]:
        j = pts[int(k)]
        for coeffs in (v0, psi0):
            val = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
            _add_conjugate_pair(adder(coeffs), val, j)
    # each converged omega with its conjugacy check, then the contrast omega
    runs = [(i, omega, res) for i, (omega, res)
            in enumerate(zip(omegas, kam_results or [])) if res[1].converged]
    if run.get("contrast_omega"):
        runs.append(("contrast", run["contrast_omega"], None))
    dyn_rows = []
    for label, omega, res in runs:
        omega = np.asarray(omega, float)
        times, states = evolve_original(problem, omega, v0, psi0, horizon, dt)
        runrec = run_norms(times, states, problem.lattice, s)
        write_trajectory(outdir / f"trajectory_{label}.csv", runrec.times,
                         runrec.norm_v, runrec.norm_psi)
        stab = stability_check(runrec)
        residual = float("nan")
        if res is not None:
            chain = ConjugationChain(problem, omega, res[0], res[1].state)
            conj = conjugacy_roundtrip(chain, times, states)
            write_json(outdir / f"conjugacy_{label}.json", conj)
            residual = conj["trajectory_residual"]
        dyn_rows.append({"omega_index": label, "sup_ratio": stab["sup_ratio"],
                         "bounded": stab["bounded"],
                         "trajectory_residual": residual})
    summary["dynamics"] = dyn_rows
    return dyn_rows


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def cmd_run(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg["problem"].get("seed", 0)
    outdir = Path(args.out or cfg.get("output", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    phases = args.phases.split(",") if args.phases else \
        cfg["run"].get("phases", ["pipeline"])
    for ph in phases:
        if ph not in PHASES:
            raise ConfigError(f"unknown phase {ph!r}")
    gamma_list = (
        [float(x) for x in args.gamma_list.split(",")]
        if args.gamma_list
        else None
    )
    t_start = time.time()
    problem = build_problem(cfg, seed)
    summary = {}
    timings = {}
    omega = np.asarray(cfg["run"]["omega"], dtype=float)
    omegas = cfg["run"].get("omegas") or [cfg["run"]["omega"]]
    reg = None
    kam_results = None
    certificate = None
    status = 0
    try:
        if "pipeline" in phases or set(phases) & {"measure"}:
            t0 = time.time()
            reg = phase_pipeline(problem, omega, outdir, summary)
            timings["pipeline"] = time.time() - t0
        if "kam" in phases:
            t0 = time.time()
            kam_results = phase_kam(problem, cfg, omegas, outdir,
                                    summary, threads=args.threads, reg=reg)
            timings["kam"] = time.time() - t0
            for _, out in kam_results:
                if out.verdict == "resonance":
                    certificate = out.certificate
        if "measure" in phases:
            t0 = time.time()
            phase_measure(problem, cfg, reg, outdir, summary,
                          gamma_list=gamma_list)
            timings["measure"] = time.time() - t0
        if "dynamics" in phases:
            t0 = time.time()
            if kam_results is None:
                kam_results = phase_kam(problem, cfg, omegas, outdir,
                                        summary, threads=args.threads,
                                        reg=reg)
            phase_dynamics(problem, cfg, kam_results, omegas, outdir,
                           summary, seed=seed)
            timings["dynamics"] = time.time() - t0
    except WavekamError as err:
        certificate = getattr(err, "certificate", lambda: None)()
        payload = {"error": type(err).__name__, "message": str(err)}
        if certificate:
            payload["certificate"] = certificate
        write_json(outdir / "failure_certificate.json", payload)
        print(f"numerical failure: {err}", file=sys.stderr)
        status = 3
    config_blob = json.dumps(cfg, sort_keys=True).encode()
    manifest = {
        "config": cfg,
        "config_sha256": hashlib.sha256(config_blob).hexdigest(),
        "seed": seed,
        "phases": phases,
        "versions": {
            "wavekam": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timings": timings,
        "wall_time": time.time() - t_start,
    }
    write_json(outdir / "run_manifest.json", manifest)
    _write_summary_md(outdir / "summary.md", manifest, summary)
    return status


def _write_summary_md(path, manifest, summary):
    lines = [
        "# Run summary",
        "",
        f"- config hash: `{manifest['config_sha256']}`",
        f"- seed: {manifest['seed']}",
        f"- wall time: {manifest['wall_time']:.1f} s",
        "",
    ]
    if "pipeline" in summary:
        p = summary["pipeline"]
        lines += [
            "## Reduction",
            "",
            "| quantity | value |",
            "| --- | --- |",
            f"| m | {p['m']:.12f} |",
            f"| non-constant highest order | {p['w1_nonconstant']:.3e} |",
            f"| diagonal fluctuation | {p['diagonal_fluctuation']:.3e} |",
            f"| remainder norm (s0) | {p['r4_norm_s0']:.3e} |",
            "",
        ]
    if "kam" in summary:
        lines += ["## Iteration", "",
                  "| omega | verdict | steps | residual | conjugation |",
                  "| --- | --- | --- | --- | --- |"]
        for row in summary["kam"]:
            lines.append(
                f"| {row['omega_index']} | {row['verdict']} | {row['steps']} "
                f"| {row['residual']:.3e} | {row['conjugation_residual']:.3e} |"
            )
        lines.append("")
    if "measure" in summary:
        fit = summary["measure"]["fit"]
        lines += ["## Measure sweep", "",
                  "| gamma | excluded fraction |", "| --- | --- |"]
        for row in summary["measure"]["rows"]:
            lines.append(f"| {row['gamma']:.4g} | {row['fraction']:.4f} |")
        lines += ["",
                  f"fit slope {fit['slope']:.3g}, R^2 {fit['r2']:.4f}", ""]
    if "dynamics" in summary:
        lines += ["## Dynamics", "",
                  "| omega | sup ratio | conjugacy residual |",
                  "| --- | --- | --- |"]
        for row in summary["dynamics"]:
            lines.append(
                f"| {row['omega_index']} | {row['sup_ratio']:.4f} "
                f"| {row['trajectory_residual']:.3e} |"
            )
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def cmd_verify(args):
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}",
              file=sys.stderr)
        return 2
    rows = run_suite(args.suite, seed=args.seed or 0)
    print(tap_render(rows))
    return 0 if all(r["ok"] for r in rows) else 1


def cmd_sweep(args):
    args.phases = "measure"
    return cmd_run(args)


def cmd_dump(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg["problem"].get("seed", 0)
    outdir = Path(args.out or cfg.get("output", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg, seed)
    dump_lattice(outdir / "lattice.json", problem.lattice)
    rows = []
    for ell, v in problem.a.modes():
        rows.append((list(ell), [], float(v.real), float(v.imag)))
    write_json(outdir / "coefficient_a.json", {"rows": rows})
    for i, (b, c) in enumerate(problem.rank_pairs):
        dump_function(outdir / f"rank_b_{i}.json", b)
        dump_function(outdir / f"rank_c_{i}.json", c)
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="wavekam",
        description="reducibility engine for forced wave equations on the torus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(verb, text):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--config", required=True, help="YAML configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override problem.seed")
        p.add_argument("--out", default=None, help="output directory")
        return p

    # sweep runs the measure phase only, so it reads neither flag
    p_run = common("run", "execute configured phases")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--phases", default=None,
                       help="comma-separated phase list")
    for p in (p_run, common("sweep", "measure sweep only")):
        p.add_argument("--gamma-list", default=None,
                       help="comma-separated gamma values for the sweep")
    common("dump", "write lattice/function dumps")
    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if args.verb == "run":
            return cmd_run(args)
        if args.verb == "sweep":
            return cmd_sweep(args)
        if args.verb == "dump":
            return cmd_dump(args)
        if args.verb == "verify":
            return cmd_verify(args)
    except (ConfigError, OSError, UnicodeDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
