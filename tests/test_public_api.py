"""Static guards on the package's structure.

A name in a ``wavekam`` module's ``__all__`` or imported by
``wavekam/__init__`` must appear as an identifier (a name or an attribute)
in some other module of ``src/wavekam``, or be listed in the README's
"Public API" section.  Code reached only by its own tests belongs in
``tests/oracles.py`` instead.

The |ell|_inf <= L box has one enumerator, ``spectrum.ell_box``: no other
module calls the idioms that rebuild its order or decode a flat position.

No ``a @ b`` has a product with a complex literal as its left operand:
``1j * x @ y`` parses as ``(1j * x) @ y``, a complex product where a real
one was meant.

Only ``spectrum._sample_rows`` and ``_project_rows`` call ``np.fft``:
sampling and projection go by FFT, products through ``blockop``'s one
ell-convolution kernel.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavekam"


def _modules():
    return {f.stem: ast.parse(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))}


def _exports(stem, tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {e.value for e in node.value.elts}
        if stem == "__init__" and isinstance(node, ast.ImportFrom):
            names |= {a.asname or a.name for a in node.names}
    return names


def _identifiers(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _defines(tree, name):
    return any(isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name
               for n in tree.body)


def _readme_public_api():
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Public API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, "README.md has no '## Public API' section"
    return {ref.split(".")[-1] for ref in re.findall(r"`([\w.]+)`", match.group(1))}


def test_every_export_is_used_or_documented():
    modules = _modules()
    idents = {stem: _identifiers(tree) for stem, tree in modules.items()}
    documented = _readme_public_api()
    orphans = []
    for stem, tree in modules.items():
        for name in sorted(_exports(stem, tree)):
            users = [other for other, ids in idents.items()
                     if other not in (stem, "__init__") and name in ids
                     and not _defines(modules[other], name)]
            if not users and name not in documented:
                orphans.append(f"{stem}.{name}")
    assert not orphans, (
        "exported but used by no other wavekam module and not in the README "
        f"'Public API' list: {orphans}")


# box idioms allowed outside spectrum, by (module, enclosing def), with why
BOX_IDIOM_EXEMPT = {
    ("verify", "suite_norms"):
        "brute-force count of the j lattice, the oracle of enumerate_clusters",
}


def _box_idiom_calls(tree):
    """(enclosing def, line, idiom) of each np.indices, np.ndindex,
    np.divmod and itertools.product(..., repeat=...) call."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                owner = getattr(child.func.value, "id", None)
                attr = child.func.attr
                if owner in ("np", "numpy") and attr in ("indices", "ndindex", "divmod"):
                    found.append((where, child.lineno, f"np.{attr}"))
                if (owner == "itertools" and attr == "product"
                        and any(k.arg == "repeat" for k in child.keywords)):
                    found.append((where, child.lineno, "itertools.product(repeat=)"))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, child.name if named else where)

    visit(tree, None)
    return found


def test_only_spectrum_enumerates_the_ell_box():
    stray, used = [], set()
    for stem, tree in _modules().items():
        if stem == "spectrum":
            continue
        for where, line, idiom in _box_idiom_calls(tree):
            if (stem, where) in BOX_IDIOM_EXEMPT:
                used.add((stem, where))
            else:
                stray.append(f"{stem}.py:{line} ({where}): {idiom}")
    assert not stray, f"use spectrum.ell_box / ell_table instead: {stray}"
    assert used == set(BOX_IDIOM_EXEMPT), "stale exemption"


def _complex_literal_matmuls(tree):
    """Lines of each ``a @ b`` whose left operand is a product (``*`` or
    ``/``, nested or signed) with a complex literal."""

    def has_complex(node):
        if isinstance(node, ast.UnaryOp):
            return has_complex(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            return has_complex(node.left) or has_complex(node.right)
        return isinstance(node, ast.Constant) and isinstance(node.value, complex)

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.left, ast.BinOp) and has_complex(node.left)]


def test_no_complex_literal_product_left_of_matmul():
    stray = [f"{stem}.py:{line}" for stem, tree in _modules().items()
             for line in _complex_literal_matmuls(tree)]
    assert not stray, f"parenthesize the real product, 1j * (x @ y): {stray}"


def test_complex_literal_matmul_scan_flags_the_slip():
    flagged = _complex_literal_matmuls(ast.parse(
        "a = 1j * p @ e.T\nb = -2j * p * s @ e\nc = p * 1j @ e\n"
        "ok = 1j * (p @ e.T)\nok2 = (1j * p) + q @ e\nok3 = 2 * p @ e\n"))
    assert flagged == [1, 2, 3]


# the FFT's users: sampling on and projecting from the uniform grid
FFT_USERS = {("spectrum", "_sample_rows"), ("spectrum", "_project_rows")}


def _fft_uses(tree):
    """(enclosing def, line) of each ``np.fft`` or ``numpy.fft`` reference
    and each import from ``numpy.fft`` or of ``numpy``'s ``fft``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "fft"
                    and getattr(child.value, "id", None) in ("np", "numpy")):
                found.append((where, child.lineno))
            elif isinstance(child, ast.ImportFrom) and (
                    (child.module or "").startswith("numpy.fft")
                    or (child.module == "numpy"
                        and any(a.name == "fft" for a in child.names))):
                found.append((where, child.lineno))
            elif isinstance(child, ast.Import) and any(
                    a.name.startswith("numpy.fft") for a in child.names):
                found.append((where, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, child.name if named else where)

    visit(tree, None)
    return found


def test_only_sampling_and_projection_use_the_fft():
    stray, used = [], set()
    for stem, tree in _modules().items():
        for where, line in _fft_uses(tree):
            if (stem, where) in FFT_USERS:
                used.add((stem, where))
            else:
                stray.append(f"{stem}.py:{line} ({where})")
    assert not stray, f"products go through blockop's kernel, not np.fft: {stray}"
    assert used == FFT_USERS, "stale FFT user"


def test_fft_scan_flags_every_spelling():
    flagged = _fft_uses(ast.parse(
        "def f(x):\n    return np.fft.fftn(x)\n"
        "import numpy.fft\nfrom numpy import fft\nfrom numpy.fft import ifftn\n"
        "y = numpy.fft.rfft(x)\nok = np.linalg.norm(x)\n"))
    assert flagged == [("f", 2), (None, 3), (None, 4), (None, 5), (None, 6)]
