"""Every function defined in ``src/wavekam`` runs under the CLI verbs.

One process runs ``wavekam run`` on both bundled configs, ``verify
hamiltonian``, ``sweep`` and ``dump`` under ``sys.setprofile`` and records
every code object entered.  A function, method or nested function of
``src/wavekam`` that is never entered must be listed in ``ALLOWED`` with the
reason it stays: an error path, a README "Public API" name, or code that only
another verb or a larger input reaches.  Code that only tests reach belongs in
``tests/oracles.py``.
"""

import ast
import sys
from pathlib import Path

import wavekam
from wavekam import blockop, cli, spectrum
from wavekam.cli import main

PACKAGE = Path(wavekam.__file__).resolve().parent
CONFIGS = PACKAGE / "configs"

SUITE = "reached by `verify {}`, which test_cli runs"
ALLOWED = {
    # error paths
    "cli._check_sizes.fail": "error path: a config value the schema cannot reject",
    "errors.DiophantineViolation.__init__": "error path: a violated divisor floor",
    "errors.ResonanceError.__init__": "error path: a failed Melnikov condition",
    "errors.ResonanceError.certificate": "error path: the exit-3 certificate",
    "errors.ResourceLimitError.__str__": "error path: a resource limit",
    "errors.ResourceLimitError.certificate": "error path: the exit-3 certificate",
    # inputs the bundled configs do not hold
    "cli._build_angle.add": "config angle functions of kind `modes` or `random`",
    "spectrum.AngleFunction.zero": "config angle functions of kind `zero`, "
                                   "`modes` or `random`",
    "reporting._json_float": "non-finite block entries in r4_blocks.json",
    # README Public API
    "multiplier.multiplier_norm": "README Public API",
    "spectrum.sobolev_norm": "README Public API",
    "spectrum.SpaceTimeFunction.sobolev_norm": "README Public API "
                                               "(`sobolev_norm`); `verify norms`",
    # names perfbench wraps or calls
    "spectrum.SpaceTimeFunction.x_coeffs_at_phi": "perfbench's tracer wraps it "
                                                  "(ROADMAP items 1 and 10)",
    "spectrum.SpaceTimeFunction.from_modes": "perfbench's worker; `verify "
                                             "pipeline` and `dynamics`",
    # the other verify suites
    "verify.suite_norms": SUITE.format("norms"),
    "verify.suite_pipeline": SUITE.format("pipeline"),
    "verify.suite_kam": SUITE.format("kam"),
    "verify.suite_measure": SUITE.format("measure"),
    "verify.suite_dynamics": SUITE.format("dynamics"),
    "verify._random_space_time": SUITE.format("norms"),
    "verify._verify_problem": SUITE.format("pipeline|dynamics"),
    "blockop.block_decay_norm": SUITE.format("norms"),
    "blockop.BlockOperator.hs_total": SUITE.format("norms"),
    "multiplier.multiplier_to_blocks": SUITE.format("norms"),
    "spectrum.SpectralLattice.cluster_gap_constant": SUITE.format("norms"),
    "kam.KamState.hermitian_residual": SUITE.format("kam"),
    "kam.SylvesterOperator.__init__": SUITE.format("kam"),
    "kam.SylvesterOperator.eig": SUITE.format("kam"),
    "kam.sylvester_solve": SUITE.format("kam"),
    "resonance.classify_grid": SUITE.format("measure") + "; perfbench's checks",
    "dynamics.reduced_norm_drift": SUITE.format("dynamics"),
}


def _definitions():
    """(file, first line) -> dotted name of every def in the package; the
    first line is the first decorator's, as in ``co_firstlineno``."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def test_every_function_is_entered_or_allowed(tmp_path, capsys, monkeypatch):
    # a cached function is not entered on a hit left by an earlier test
    for module in (cli, spectrum, blockop):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    monkeypatch.setattr(blockop, "_PLANS", blockop._PlanCache())
    verbs = [
        ["run", "--config", str(CONFIGS / "eps0.yaml"), "--out", str(tmp_path / "eps0")],
        ["run", "--config", str(CONFIGS / "kirchhoff-lin.yaml"),
         "--out", str(tmp_path / "kirchhoff-lin")],
        ["verify", "hamiltonian"],
        ["sweep", "--config", str(CONFIGS / "kirchhoff-lin.yaml"),
         "--out", str(tmp_path / "sweep")],
        ["dump", "--config", str(CONFIGS / "eps0.yaml"), "--out", str(tmp_path / "dump")],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in verbs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(verbs)
    entered = {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
               for code in entered}
    defs = _definitions()
    never = {name for key, name in defs.items() if key not in entered}
    assert sorted(never - set(ALLOWED)) == []
    # an entry whose function is gone or now runs is stale
    assert sorted(set(ALLOWED) - never) == []
