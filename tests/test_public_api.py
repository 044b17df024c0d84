"""Static guards on the package's structure.

A name in a ``wavekam`` module's ``__all__`` or imported by
``wavekam/__init__`` must appear as an identifier (a name or an attribute)
in some other module of ``src/wavekam``, or be listed in the README's
"Public API" section.  Code reached only by its own tests belongs in
``tests/oracles.py`` instead.

The |ell|_inf <= L box has one enumerator, ``spectrum.ell_box``: no other
module calls the idioms that rebuild its order or decode a flat position.
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
