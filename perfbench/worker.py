"""One benchmark workload in one fresh process: set up, time operations, check.

    python3 perfbench/worker.py --workload cli-configs --seed 1 --seconds 45 \
        --trace 0 --result perfbench/out/r.json [--setup-only]

``run.py`` starts this with BLAS and OpenMP threads pinned to 1 and the
checkout's ``src`` on PYTHONPATH, and reads the JSON it writes to
``--result``.  Set-up ends at ``setup_done`` (``time.monotonic``), which
``run.py`` subtracts from the moment it started the process.
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent

# the acceptance suite's desk problem (tests/test_acceptance.py::desk_problem)
D, NU, J_MAX, ELL_MAX = 2, 2, 6, 8
DESK_EPS = 1e-3
OMEGA_REF = np.array([1.66991901, 1.54742436])

SWEEP_SAMPLES = 10**4                  # measure-sweep: omega per operation
SWEEP_GAMMAS = (0.02, 0.01, 0.005, 0.0025)
AGREEMENT_SAMPLES = 4                  # classify_omega: up to ~1.5 s a sample
CLI_CONFIGS = ("eps0", "kirchhoff-lin")


def rng_for(seed, tag):
    """Generator for one input stream of one seed."""
    digest = hashlib.sha256(repr((seed, tag)).encode()).digest()
    return np.random.Generator(
        np.random.Philox(key=int.from_bytes(digest[:8], "little")))


def desk_problem(eps=DESK_EPS):
    from wavekam import AngleFunction, SpaceTimeFunction
    from wavekam.regularization import WaveProblem

    a = AngleFunction.cosine(NU, ELL_MAX, (1, 0))
    b = SpaceTimeFunction.from_modes(
        NU, ELL_MAX, D, {((1, 0), (1, 0)): 0.5, ((-1, 0), (-1, 0)): 0.5})
    c = SpaceTimeFunction.from_modes(
        NU, ELL_MAX, D, {((1, 0), (0, 1)): 0.5, ((-1, 0), (0, -1)): 0.5})
    return WaveProblem(
        d=D, nu=NU, epsilon=eps, a=a, rank_pairs=[(b, c)],
        j_max=J_MAX, ell_max=ELL_MAX, q=8, M=4,
        gamma=eps**0.75 if eps > 0 else 0.01,
    )


class Workload:
    """Set up from a seed; yield (label, timed operation, verify) forever."""

    def post_checks(self):
        """Untimed checks after the operations: [(label, errors)]."""
        return []


class MeasureSweep(Workload):
    """measure_sweep over 10^4 seeded omega and four gamma."""

    def __init__(self, seed):
        from wavekam.regularization import run_pipeline
        from wavekam.resonance import EigenData

        self.p = desk_problem()
        reg = run_pipeline(self.p, OMEGA_REF)
        self.eig = EigenData.unperturbed(self.p.lattice, m=reg.m, c=list(reg.c))
        self.samples = 1.0 + rng_for(seed, "measure-sweep").random(
            (SWEEP_SAMPLES, NU))
        self.check_idx = rng_for(seed, "agreement").choice(
            SWEEP_SAMPLES, AGREEMENT_SAMPLES, replace=False)

    def inputs(self):
        return {
            "samples_sha256": hashlib.sha256(self.samples.tobytes()).hexdigest(),
            "n_samples": len(self.samples), "gammas": list(SWEEP_GAMMAS),
            "agreement_indices": self.check_idx.tolist(),
        }

    def _args(self):
        return self.p.tau, self.p.dd, self.p.ell_max

    def operations(self):
        from wavekam.resonance import measure_sweep

        def verify(result):
            rows, fit = result
            fractions = [r["fraction"] for r in rows]
            digest = checks.array_digest(
                fractions, [r["n_excluded"] for r in rows],
                [fit["slope"], fit["intercept"], fit["r2"]])
            summary = {"fractions": fractions, "fit": fit}
            return (checks.check_sweep(SWEEP_GAMMAS, fractions, fit), digest,
                    summary)

        while True:
            yield "sweep", (lambda: timed(lambda: measure_sweep(
                self.samples, self.eig, SWEEP_GAMMAS, *self._args()))), verify

    def post_checks(self):
        from wavekam.resonance import classify_grid, classify_omega

        pts = self.samples[self.check_idx]
        g0 = SWEEP_GAMMAS[0]
        mask = classify_grid(pts, self.eig, g0, *self._args())
        verdicts = [classify_omega(w, self.eig, g0, *self._args()).accepted
                    for w in pts]
        return [("agreement", checks.check_agreement(mask, verdicts))]


class CliConfigs(Workload):
    """`wavekam run` in process on both bundled configs, one pass per op."""

    def __init__(self, seed):
        import jsonschema  # noqa: F401  (cli imports these lazily)
        import yaml  # noqa: F401
        from wavekam import cli

        self.seed = seed
        self.main = cli.main
        conf_dir = Path(cli.__file__).parent / "configs"
        self.paths = {n: conf_dir / f"{n}.yaml" for n in CLI_CONFIGS}
        self.cfgs = {n: cli.load_config(p) for n, p in self.paths.items()}
        self.tmp = ROOT / "perfbench" / "out" / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def inputs(self):
        return {"argv_seed": self.seed,
                "configs": {n: hashlib.sha256(p.read_bytes()).hexdigest()
                            for n, p in self.paths.items()}}

    def _call(self, name):
        outdir = tempfile.mkdtemp(dir=self.tmp)
        try:
            seconds, rc = timed(lambda: self.main(
                ["run", "--config", str(self.paths[name]),
                 "--seed", str(self.seed), "--out", outdir, "--threads", "1"]))
            errors = checks.check_cli_run(name, self.cfgs[name], rc, outdir)
            digest = checks.numeric_digest(outdir)
        finally:
            shutil.rmtree(outdir)
        return seconds, (errors, digest)

    def operations(self):
        def run_pass():
            # the checks between the two calls stay outside the timing
            calls = [self._call(name) for name in CLI_CONFIGS]
            return sum(s for s, _ in calls), [r for _, r in calls]

        def verify(result):
            errors = [e for errs, _ in result for e in errs]
            digest = hashlib.sha256(
                "".join(d for _, d in result).encode()).hexdigest()
            return errors, digest, None

        while True:
            yield "pass", run_pass, verify


WORKLOADS = {"measure-sweep": MeasureSweep, "cli-configs": CliConfigs}


def timed(call):
    t0 = time.perf_counter()
    result = call()
    return time.perf_counter() - t0, result


def run_operations(wl, seconds, tracer):
    """Operations back to back for about `seconds`: after the first, another
    starts only if half of it, judged by the one before, fits in the time."""
    records, first_digest = [], {}
    start = last = time.monotonic()
    for i, (label, fn, verify) in enumerate(wl.operations()):
        now = time.monotonic()
        if i and now - start + (now - last) / 2 >= seconds:
            break
        last = now
        if tracer:
            tracer.op = i
        rec = {"op": i, "label": label, "seconds": None}
        try:
            try:
                rec["seconds"], result = fn()
            finally:
                if tracer:  # the checks are not part of the operation
                    tracer.op = -2
            errors, digest, rec["summary"] = verify(result)
        except Exception:
            errors, digest = [traceback.format_exc(limit=4)], None
        if digest is not None:
            ref = first_digest.setdefault(label, digest)
            if digest != ref:
                errors.append(f"outputs differ from the first {label} "
                              "operation of this run")
        rec.update(ok=not errors, errors=errors, digest=digest)
        records.append(rec)
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None, help="span dump (traced runs)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import wavekam

    src = (ROOT / "src").resolve()
    if src not in Path(wavekam.__file__).resolve().parents:
        raise SystemExit(f"wavekam imported from {wavekam.__file__}, not {src}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    wl = WORKLOADS[args.workload](args.seed)
    out = {"workload": args.workload, "seed": args.seed,
           "setup_done": time.monotonic(), "inputs": wl.inputs()}
    if not args.setup_only:
        out["ops"] = run_operations(wl, args.seconds, tracer)
        out["post"] = [{"label": label, "ok": not errs, "errors": errs}
                       for label, errs in wl.post_checks()]
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            metrics, info = tracer.report(len(out["ops"]))
            out["trace"] = {"metrics": metrics, "info": info}
            if args.spans:
                tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
