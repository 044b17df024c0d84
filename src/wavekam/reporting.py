"""File outputs: binary-free JSON/CSV/JSONL dumps with documented columns."""

import csv
import json
import math

import numpy as np

from .spectrum import ell_table

__all__ = [
    "dump_lattice",
    "dump_function",
    "dump_blocks",
    "dump_multiplier",
    "write_norm_report",
    "write_stage_diagnostics",
    "write_convergence_table",
    "dump_eigenvalues",
    "write_sweep_table",
    "write_certificates",
    "write_trajectory",
    "write_json",
]


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonify(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")


def dump_lattice(path, lattice):
    write_json(path, {"d": lattice.d, "j_max": lattice.j_max,
                      "clusters": lattice.to_json()})


def dump_function(path, fn):
    """Coefficient rows (ell-tuple, j-tuple, re, im)."""
    write_json(path, {"rows": fn.to_rows()})


def _json_list(items, pad):
    """A JSON list of ready item texts, laid out as ``write_json`` lays it
    out at the indent ``pad`` of its items."""
    items = list(items)
    if not items:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[:-1] + "]"


def _json_float(x):
    """A float as ``write_json`` writes it: repr, NaN and inf as strings."""
    return repr(x) if math.isfinite(x) else f'"{x!r}"'


def dump_blocks(path, op, name=""):
    """Rows (ell-tuple, alpha_sq, beta_sq, row-major [re, im] entries) in
    block-key order; the text ``write_json`` gives for them, formed a stack
    at a time."""
    box = ell_table(op.nu, op.ell_max)[0]
    rows = []
    for (a_sq, b_sq), (idx, mats) in op.stacks.items():
        fmt = repr if np.isfinite(mats).all() else _json_float
        entries = np.stack((mats.real, mats.imag), -1).reshape(len(mats), -1)
        for p, ell, values in zip(idx.tolist(), box[idx].tolist(), entries.tolist()):
            rows.append(((p, a_sq, b_sq), (
                f'{{\n   "alpha_sq": {a_sq},\n   "beta_sq": {b_sq},\n'
                f'   "ell": {_json_list(map(str, ell), "    ")},\n'
                f'   "entries": {_json_list(map(fmt, values), "    ")}\n  }}')))
    rows.sort(key=lambda row: row[0])
    with open(path, "w") as fh:
        fh.write(f'{{\n "ell_max": {op.ell_max},\n "name": {json.dumps(name)},\n'
                 f' "nu": {op.nu},\n "rows": ')
        fh.write(_json_list((text for _, text in rows), "  "))
        fh.write("\n}\n")


def dump_multiplier(path, mult):
    """Rows (ell-tuple, alpha_sq, re, im, order)."""
    rows = [
        {"ell": ell, "alpha_sq": a_sq, "re": re, "im": im, "order": order}
        for (ell, a_sq, re, im, order) in mult.to_rows()
    ]
    write_json(path, {"rows": rows})


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_norm_report(path, rows):
    """CSV rows (s, norm, truncation_loss)."""
    _write_csv(path, ["s", "norm", "truncation_loss"],
               ([s, repr(float(norm)), repr(float(loss))]
                for s, norm, loss in rows))


def write_stage_diagnostics(path, log):
    """CSV rows (stage, norm_name, s, value)."""
    _write_csv(path, ["stage", "norm_name", "s", "value"],
               ([entry["stage"], key, "", repr(float(val))]
                for entry in log
                for key, val in sorted(entry["diagnostics"].items())
                if isinstance(val, (int, float, np.floating))))


def write_convergence_table(path, omega_index, history, residual, verdict):
    """CSV (omega_index, k, N_k, r_low, r_high, residual, verdict)."""
    rows = [[omega_index, h["k"], h["N_k"], repr(h["r_low"]),
             repr(h["r_high"]), repr(h["psi_norm"]),
             int(h["tail_vanished"]), "", ""] for h in history]
    rows.append([omega_index, "", "", "", "", "", "", repr(residual),
                 verdict])
    _write_csv(path, ["omega_index", "k", "N_k", "r_low", "r_high",
                      "psi_norm", "tail_vanished", "residual", "verdict"],
               rows)


def dump_eigenvalues(path, table, m):
    payload = {
        "m": m,
        "clusters": {
            str(a_sq): {
                "alpha": t["alpha"],
                "n_alpha": t["n_alpha"],
                "eigenvalues": t["eigenvalues"],
                "corrections": t["corrections"],
            }
            for a_sq, t in table.items()
        },
    }
    write_json(path, payload)


def write_sweep_table(path, rows):
    """CSV (gamma, n_samples, n_excluded, fraction, fit_slope, fit_r2)."""
    _write_csv(path, ["gamma", "n_samples", "n_excluded", "fraction",
                      "fit_slope", "fit_r2"],
               ([repr(r["gamma"]), r["n_samples"], r["n_excluded"],
                 repr(r["fraction"]), repr(r["fit_slope"]), repr(r["fit_r2"])]
                for r in rows))


def write_certificates(path, reports):
    """JSONL: one ResonanceReport per line."""
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(_jsonify(rep.to_json())) + "\n")


def write_trajectory(path, times, norm_v, norm_psi):
    """CSV (t, norm_v, norm_psi, ratio)."""
    base = norm_v[0] + norm_psi[0]
    _write_csv(path, ["t", "norm_v", "norm_psi", "ratio"],
               ([repr(float(t)), repr(float(nv)), repr(float(np_)),
                 repr(float((nv + np_) / base))]
                for t, nv, np_ in zip(times, norm_v, norm_psi)))
