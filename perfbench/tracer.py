"""Spans around the calls into each wavekam layer, recorded from outside.

The tracer replaces a function by a wrapper in every ``wavekam`` namespace
that holds it (``hamiltonian`` imports ``compose`` by name, ``kam`` imports
``operator_exponential`` and ``push_forward``, ``cli`` the pipeline, KAM,
sweep and dynamics entry points), and replaces methods on their class.  Spans are kept in
memory; ``report`` turns them into the per-layer metrics listed in
``BENCHMARK.json`` and ``dump`` writes them out when the run ends.

A layer's self time is the time inside its spans minus the time of the
child spans they enclose, so operator arithmetic that is not wrapped
(``__add__``, ``__mul__``, ``set_block``) counts to the layer that calls it.
"""

import functools
import importlib
import inspect
import json
import math
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("spectrum", "blockop", "multiplier", "hamiltonian",
          "regularization", "kam", "resonance", "dynamics", "reporting", "cli")

# methods and private hooks wrapped in addition to each layer's public
# module-level functions; kam_step looks _melnikov_scan up in its module
EXTRA_TARGETS = (
    "kam._melnikov_scan",
    "blockop.BlockOperator.conj",
    "blockop.BlockOperator.decay_norm",
    "hamiltonian.ExpMap.from_generator",
    "hamiltonian.ExpMap.then",
    "spectrum.AngleFunction.product",
    "spectrum.AngleFunction.eval_at",
    "spectrum.SpaceTimeFunction.x_coeffs_at_phi",
)

# per-layer metric -> unit; "<target>.calls" and "<target>.s" count calls and
# inclusive seconds of one wrapped target, "<layer>.self_s" is self time
SELF_LAYERS = ("kam", "blockop", "spectrum", "multiplier", "hamiltonian",
               "regularization", "resonance", "dynamics", "reporting")
FUNCTION_METRICS = (
    "kam.melnikov_scan.s", "kam.kam_step.calls", "kam.kam_step.s",
    "kam.assemble_homological_solution.s", "kam.sylvester_solve.calls",
    "kam.sylvester_solve.s", "kam.conjugation_residual.s",
    "blockop.compose.calls", "blockop.compose.s", "blockop.BlockOperator.conj.s",
    "blockop.BlockOperator.decay_norm.calls",
    "blockop.BlockOperator.decay_norm.s", "blockop.smoothing_projector.s",
    "blockop.operator_exponential.calls", "blockop.operator_exponential.s",
    "hamiltonian.ExpMap.from_generator.s", "hamiltonian.ExpMap.then.s",
    "hamiltonian.push_forward.calls", "hamiltonian.push_forward.s",
    "regularization.run_pipeline.calls", "regularization.run_pipeline.s",
    "regularization.symmetrize.s", "regularization.complexify_stage.s",
    "regularization.reparametrize_time.s", "regularization.decouple_step.s",
    "regularization.reduce_diagonal.s", "spectrum.AngleFunction.product.calls",
    "spectrum.AngleFunction.product.s", "multiplier.multiplier_compose.calls",
    "multiplier.multiplier_compose.s", "multiplier.multiplier_exponential.calls",
    "multiplier.multiplier_exponential.s", "resonance.classify_grid.calls",
    "resonance.classify_grid.s", "resonance.classify_omega.calls",
    "resonance.classify_omega.s", "dynamics.evolve_original.calls",
    "dynamics.evolve_original.s", "dynamics.conjugacy_roundtrip.s",
    "dynamics.evolve_reduced.s", "dynamics.stability_check.s",
    "spectrum.AngleFunction.eval_at.calls", "spectrum.AngleFunction.eval_at.s",
    "spectrum.SpaceTimeFunction.x_coeffs_at_phi.calls",
    "spectrum.SpaceTimeFunction.x_coeffs_at_phi.s", "cli.build_problem.s",
    "cli.phase_pipeline.s", "cli.phase_kam.s", "cli.phase_measure.s",
    "cli.phase_dynamics.s",
)
# counters filled by the span hooks below: metric -> (unit, wrapped target)
COUNTERS = {
    "kam.melnikov_scan.ells": ("count", "kam._melnikov_scan"),
    "kam.max_N_k": ("count", "kam.kam_step"),
    "regularization.pipeline_reuse": ("ratio", "regularization.run_pipeline"),
    "resonance.classify_grid.samples": ("count", "resonance.classify_grid"),
    "dynamics.rk4_steps": ("count", "dynamics.evolve_original"),
    "reporting.bytes": ("bytes", None),
}
OVERHEAD_METRIC = "trace.overhead_s"


def _target_of(metric):
    """'kam.melnikov_scan.s' -> 'kam._melnikov_scan' (the wrapped name)."""
    target = metric.rsplit(".", 1)[0]
    return "kam._melnikov_scan" if target == "kam.melnikov_scan" else target


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in SELF_LAYERS}
    for m in FUNCTION_METRICS:
        units[m] = "s" if m.endswith(".s") else "count"
    units.update({m: unit for m, (unit, _) in COUNTERS.items()})
    units[OVERHEAD_METRIC] = "s"
    return units


def count_ells(n_cut, nu):
    """#{ell in Z^nu : |ell| <= n_cut}, the set the Melnikov scan enumerates.

    Counted row by row along the last axis, so memory is O(n_cut^(nu-1)).
    """
    n = int(min(math.floor(n_cut), 10**6))
    if n < 0:
        return 0
    r2 = float(n_cut) ** 2
    axis = np.arange(-n, n + 1, dtype=float) ** 2
    sq = np.zeros(1)
    for _ in range(nu - 1):
        sq = (sq[:, None] + axis[None, :]).ravel()
        sq = sq[sq <= r2]
    return int(np.sum(2 * np.minimum(np.floor(np.sqrt(r2 - sq)), n) + 1))


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _hook_scan(tracer, attrs, args, kwargs):
    attrs["ells"] = count_ells(_arg(args, kwargs, 4, "n_cut"),
                               _arg(args, kwargs, 5, "nu"))


def _hook_kam_step(tracer, attrs, args, kwargs):
    state, config = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 2, "config")
    attrs["k"] = state.step
    attrs["N_k"] = config.n_k(state.step)


def _hook_pipeline(tracer, attrs, args, kwargs):
    problem = _arg(args, kwargs, 0, "problem")
    tracer.keep.append(problem)  # so that no later problem reuses its id
    omega = np.asarray(_arg(args, kwargs, 1, "omega"), dtype=float)
    attrs["key"] = [id(problem), omega.tolist()]


def _hook_grid(tracer, attrs, args, kwargs):
    attrs["samples"] = int(np.asarray(_arg(args, kwargs, 0, "samples")).shape[0])


def _hook_evolve(tracer, attrs, args, kwargs):
    horizon = _arg(args, kwargs, 4, "horizon")
    dt = _arg(args, kwargs, 5, "dt")
    attrs["rk4_steps"] = int(math.ceil(horizon / dt))


def _hook_written(tracer, attrs, args, kwargs):
    path = args[0] if args else kwargs.get("path")
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        attrs["bytes"] = os.path.getsize(path)


HOOKS = {
    "kam._melnikov_scan": _hook_scan,
    "kam.kam_step": _hook_kam_step,
    "regularization.run_pipeline": _hook_pipeline,
    "resonance.classify_grid": _hook_grid,
    "dynamics.evolve_original": _hook_evolve,
}


class Tracer:
    """Wraps the layer entry points and keeps one span per wrapped call.

    A span is ``[name, start, end, parent, op, child_seconds, attrs]``; ``op``
    is the operation id set by the workload loop (-1 during set-up).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.missing = {}
        self.keep = []
        self._undo = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, perf_counter(), 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[2] = end
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if hook is not None:
                rec[6] = {}
                hook(self, rec[6], args, kwargs)
            return result

        return functools.wraps(fn)(wrapper)

    def _patch_function(self, name, fn, hook, modules):
        wrapper = self._wrap(fn, name, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, fn))

    def _patch_method(self, name, cls, attr, hook):
        raw = vars(cls)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, name, hook))
        else:
            new = self._wrap(raw, name, hook)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def install(self):
        """Wrap every layer's public functions plus EXTRA_TARGETS."""
        mods = {layer: importlib.import_module(f"wavekam.{layer}")
                for layer in LAYERS}
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if (k == "wavekam" or k.startswith("wavekam.")) and m]
        targets = {}
        for layer, mod in mods.items():
            for key, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not key.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[f"{layer}.{key}"] = (mod, None, key)
        for name in EXTRA_TARGETS:
            layer, *path = name.split(".")
            owner, ok = mods[layer], True
            for part in path[:-1]:
                owner = getattr(owner, part, None)
                ok = ok and inspect.isclass(owner)
            if ok and path[-1] in vars(owner):
                targets[name] = (mods[layer], owner if len(path) > 1 else None,
                                 path[-1])
            else:
                self.missing[name] = f"wavekam has no {name}"
        for name, (mod, cls, attr) in sorted(targets.items()):
            hook = HOOKS.get(name)
            if name.startswith("reporting.") and hook is None:
                hook = _hook_written
            if cls is None:
                self._patch_function(name, vars(mod)[attr], hook, namespaces)
            else:
                self._patch_method(name, cls, attr, hook)
        needed = ({_target_of(m) for m in FUNCTION_METRICS}
                  | {t for _, t in COUNTERS.values() if t})
        for target in needed - set(targets):
            self.missing.setdefault(target, f"wavekam has no {target}")
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def report(self, n_ops):
        """Per-layer metrics per timed operation, plus the set-up breakdown."""
        timed = [s for s in self.spans if s[4] >= 0]
        per = 1.0 / max(n_ops, 1)
        calls, incl, self_layer = {}, {}, {}
        for name, start, end, _, _, child, _ in timed:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (end - start)
            layer = name.split(".", 1)[0]
            self_layer[layer] = self_layer.get(layer, 0.0) + (end - start - child)
        metrics = {}
        for layer in SELF_LAYERS:
            metrics[f"{layer}.self_s"] = self_layer.get(layer, 0.0) * per
        for m in FUNCTION_METRICS:
            target = _target_of(m)
            if target in self.missing:
                metrics[m] = None
            elif m.endswith(".calls"):
                metrics[m] = calls.get(target, 0) * per
            else:
                metrics[m] = incl.get(target, 0.0) * per

        def attr_values(target, key, spans):
            return [s[6][key] for s in spans
                    if s[0] == target and s[6] and key in s[6]]

        counters = {
            "kam.melnikov_scan.ells":
                sum(attr_values("kam._melnikov_scan", "ells", timed)) * per,
            "kam.max_N_k": max(attr_values("kam.kam_step", "N_k", timed),
                               default=0),
            "resonance.classify_grid.samples":
                sum(attr_values("resonance.classify_grid", "samples", timed))
                * per,
            "dynamics.rk4_steps":
                sum(attr_values("dynamics.evolve_original", "rk4_steps", timed))
                * per,
            # outermost reporting span only: dump_* write through write_json
            "reporting.bytes": sum(
                s[6].get("bytes", 0) for s in timed
                if s[0].startswith("reporting.") and s[6]
                and not (s[3] >= 0
                         and self.spans[s[3]][0].startswith("reporting."))
            ) * per,
        }
        # reuse spans the whole process: on measure-sweep the pipeline only
        # runs in set-up
        keys = [(s[4], json.dumps(s[6]["key"])) for s in self.spans
                if s[0] == "regularization.run_pipeline" and s[6]]
        counters["regularization.pipeline_reuse"] = (
            len(set(keys)) / len(keys) if keys else None)
        for m, (_, target) in COUNTERS.items():
            metrics[m] = None if target in self.missing else counters[m]
        missing = {}
        for m in metrics:
            if metrics[m] is None:
                target = COUNTERS[m][1] if m in COUNTERS else _target_of(m)
                missing[m] = self.missing.get(target, "no call to measure")
        setup = {}
        for name, start, end, _, op, child, _ in self.spans:
            if op == -1:
                layer = name.split(".", 1)[0]
                setup[layer] = setup.get(layer, 0.0) + (end - start - child)
        return metrics, {"setup_self_s": setup, "missing": missing,
                         "n_spans": len(self.spans), "n_ops": n_ops}

    def dump(self, path):
        """One JSON array per span: id, name, start, end, parent, op, attrs."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, _, attrs) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start, 7), round(end, 7),
                                     parent, op, attrs]) + "\n")
