"""Output checks for the benchmark operations.

The tolerances are the acceptance suite's pinned values
(``tests/test_acceptance.py``); each check returns a list of failure
messages, empty when the output is correct.
"""

import csv
import hashlib
from pathlib import Path

import numpy as np

# criterion 6: measure scaling
SWEEP_MIN_R2 = 0.9
# criterion 3: eps = 0 leaves the chain exact
EPS0_R4_NORM = 1e-13
# criterion 4: KAM convergence
KAM_MAX_STEPS = 8
KAM_RESIDUAL = 1e-12
KAM_CONJUGATION = 1e-8
# dynamics.stability_check's default ceiling, used by the CLI dynamics phase
SUP_RATIO_CEILING = 10.0

# outputs that carry wall-clock timings and so differ from run to run
TIMED_OUTPUTS = ("run_manifest.json", "summary.md")


def check_sweep(gammas, fractions, fit):
    """Fractions non-increasing as gamma decreases; a usable linear fit."""
    errors = []
    pairs = sorted(zip(gammas, fractions), reverse=True)
    if not all(b <= a for (_, a), (_, b) in zip(pairs, pairs[1:])):
        errors.append(f"fractions not non-increasing in gamma: {pairs}")
    if fit["degenerate"]:
        errors.append("degenerate fit")
    if not fit["slope"] > 0:
        errors.append(f"fit slope {fit['slope']} <= 0")
    if not fit["r2"] >= SWEEP_MIN_R2:
        errors.append(f"fit R^2 {fit['r2']} < {SWEEP_MIN_R2}")
    return errors


def check_agreement(grid_mask, omega_verdicts):
    """classify_grid's mask against classify_omega, sample by sample."""
    bad = [i for i, (g, o) in enumerate(zip(grid_mask, omega_verdicts))
           if bool(g) != bool(o)]
    errors = []
    if len(grid_mask) != len(omega_verdicts):
        errors.append(f"{len(grid_mask)} grid verdicts for "
                      f"{len(omega_verdicts)} samples")
    if bad:
        errors.append(f"classify_grid and classify_omega disagree on samples {bad}")
    return errors


def expected_cli_outputs(cfg):
    """Files a `wavekam run` of this config writes when every omega converges."""
    run = cfg["run"]
    phases = run.get("phases", ["pipeline"])
    n_omega = len(run.get("omegas") or [run["omega"]])
    names = list(TIMED_OUTPUTS)
    if "pipeline" in phases or "measure" in phases:
        names += ["pipeline_stages.csv", "transformation_log.json",
                  "r4_blocks.json", "r4_offdiagonal_symbol.json",
                  "r4_norms.csv", "predicate_report.json"]
    if "kam" in phases or "dynamics" in phases:
        names += [f"kam_convergence_{i}.csv" for i in range(n_omega)]
        names += [f"d_infinity_{i}.json" for i in range(n_omega)]
    if "measure" in phases:
        names += ["measure_sweep.csv", "certificates.jsonl"]
    if "dynamics" in phases:
        names += [f"trajectory_{i}.csv" for i in range(n_omega)]
        names += [f"conjugacy_{i}.json" for i in range(n_omega)]
        if run.get("contrast_omega"):
            names.append("trajectory_contrast.csv")
    return sorted(names)


def _summary_rows(summary_md, heading):
    """Cells of the table under `## <heading>` in summary.md, header dropped."""
    rows, inside = [], False
    for line in summary_md.splitlines():
        if line.startswith("## "):
            inside = line[3:].strip() == heading
        elif inside and line.startswith("|"):
            rows.append([c.strip() for c in line.strip().strip("|").split("|")])
    return rows[2:]


def check_kam(name, conv_csv, conjugation):
    """Criterion 4 on one written KAM run: verdict, steps, residual targets,
    and r_low strictly decreasing into the final residual."""
    with open(conv_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{name}: {conv_csv.name} is empty"]
    steps, final = rows[:-1], rows[-1]
    residual = float(final["residual"])
    seq = [float(r["r_low"]) for r in steps] + [residual]
    errors = []
    if final["verdict"] != "converged":
        errors.append(f"{name}: {conv_csv.name} verdict {final['verdict']!r}")
    if len(steps) > KAM_MAX_STEPS:
        errors.append(f"{name}: {conv_csv.name} took {len(steps)} steps")
    if not residual < KAM_RESIDUAL:
        errors.append(f"{name}: {conv_csv.name} residual {residual:g}")
    if not all(b < a for a, b in zip(seq, seq[1:])):
        errors.append(f"{name}: {conv_csv.name} r_low not decreasing: {seq}")
    if conjugation is None or not conjugation < KAM_CONJUGATION:
        errors.append(f"{name}: {conv_csv.name} conjugation residual "
                      f"{conjugation}")
    return errors


def check_cli_run(name, cfg, rc, outdir):
    """Exit code, expected files and the per-config numeric checks."""
    outdir = Path(outdir)
    if rc != 0:
        return [f"{name}: exit code {rc}"]
    missing = [f for f in expected_cli_outputs(cfg) if not (outdir / f).is_file()]
    if missing:
        return [f"{name}: missing outputs {missing}"]
    errors = []
    phases = cfg["run"].get("phases", ["pipeline"])
    summary = (outdir / "summary.md").read_text()
    if cfg["problem"]["epsilon"] == 0:
        with open(outdir / "r4_norms.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r[k]) for r in rows for k in ("norm", "truncation_loss")]
        if not rows or not all(abs(v) <= EPS0_R4_NORM for v in values):
            errors.append(f"{name}: r4_norms.csv values {values} exceed "
                          f"{EPS0_R4_NORM:g}")
    conjugation = {int(r[0]): float(r[4])
                   for r in _summary_rows(summary, "Iteration")}
    for conv in sorted(outdir.glob("kam_convergence_*.csv")):
        i = int(conv.stem.rsplit("_", 1)[1])
        errors += check_kam(name, conv, conjugation.get(i))
    if "dynamics" in phases:
        sups = [float(r[1]) for r in _summary_rows(summary, "Dynamics")]
        if not sups or not all(s < SUP_RATIO_CEILING for s in sups):
            errors.append(f"{name}: dynamics rows not bounded: {sups}")
    return errors


def numeric_digest(outdir):
    """sha256 over every output file except the ones carrying timings."""
    h = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        if path.name not in TIMED_OUTPUTS:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def array_digest(*arrays):
    """sha256 over the exact float64 bytes of the given numbers."""
    h = hashlib.sha256()
    for a in arrays:
        arr = np.asarray(a)
        if np.iscomplexobj(arr):
            arr = np.stack([arr.real, arr.imag])
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()
