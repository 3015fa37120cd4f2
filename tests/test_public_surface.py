"""Every public function and class in the package has a reason to be there.

A public top-level ``def`` or ``class`` in ``src/spikelab`` must be used
somewhere in the package outside its own definition (``__init__``
re-exports and imports do not count), be named in backticks in the README,
or be a patch point of the traced benchmark run (``bench/spans.py``
``PATCHES``).  Anything else only serves the tests, and belongs in them.
"""

import ast
import re
from pathlib import Path

from test_bench_patch_points import load_spans

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spikelab"


def _uses(node: ast.AST, skip) -> set[str]:
    """Names loaded or attributes read under ``node``, outside the subtrees in ``skip``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if child in skip:
            continue
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        found |= _uses(child, skip)
    return found


def test_every_public_definition_is_used_documented_or_patched():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    readme = re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    exempt = {word for text in readme for word in re.findall(r"[A-Za-z_]\w*", text)}
    exempt |= {attr for module, attr, _ in load_spans().PATCHES if module.startswith("spikelab.")}
    public = {
        node: f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    # A use inside a definition that is itself unused does not count, so repeat to a fixed point.
    unused: set[ast.AST] = set()
    while True:
        found = {
            node
            for node in public
            if node not in unused and node.name not in exempt
            and not any(node.name in _uses(tree, unused | {node}) for tree in trees.values())
        }
        if not found:
            break
        unused |= found
    assert sorted(public[node] for node in unused) == []


def test_only_lapack_asks_whether_numpy_exports_the_routines():
    # Every other module calls the lapack entry points, which fall back to
    # numpy themselves, so the package takes one path either way.
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "routines":
                    callers.add(path.name)
    assert callers == {"lapack.py"}



def _knows_the_format(node: ast.AST) -> bool:
    """Whether ``node`` imports json or holds a .17g format spec."""
    if isinstance(node, ast.Import):
        return any(alias.name == "json" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "json"
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value


def test_only_cli_knows_the_output_format():
    # cli renders every report, so JSON and the .17g CSV cells stay out of every other module.
    writers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(map(_knows_the_format, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    }
    assert writers == {"cli.py"}


def test_every_lapack_signature_names_a_routine_that_is_called():
    # A routine dropped from lapack.py must take its entry in _SIGNATURES with it.
    tree = ast.parse((PACKAGE / "lapack.py").read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_SIGNATURES"
    )
    keys = set(table.keys)
    named = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in keys
    }
    assert sorted({key.value for key in keys} - named) == []
