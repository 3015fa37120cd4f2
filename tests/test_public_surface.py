"""Every public function and class in the package has a reason to be there.

A public top-level ``def`` or ``class`` in ``src/spikelab``, and a public
method or property of such a class, must be used somewhere in the package
outside its own definition (``__init__`` re-exports and imports do not
count), be named in backticks in the README from its ``## Python API``
section on, or be a patch point of the traced benchmark run
(``bench/spans.py`` ``PATCHES``).  A private top-level
``def`` must be used in the package outside its own definition.  Anything
else only serves the tests, and belongs in them.
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


def _trees() -> dict[str, ast.Module]:
    """The package's modules but ``__init__``, parsed, by name."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _exempt() -> set[str]:
    """Words in code in the README from ``## Python API`` on, and the bench patch points."""
    # Only the API sections count: a formula letter in the introduction keeps no function alive.
    api = (ROOT / "README.md").read_text(encoding="utf-8").partition("\n## Python API\n")[2]
    # Odd parts are fenced blocks, read whole; inline spans are read only between them, so
    # that a fence's backticks do not pair with the inline ones after it.
    parts = re.split(r"^```[^\n]*\n(.*?)^```", api, flags=re.M | re.S)
    inline = [span for prose in parts[::2] for span in re.findall(r"`([^`]+)`", prose)]
    readme = parts[1::2] + inline
    exempt = {word for text in readme for word in re.findall(r"[A-Za-z_]\w*", text)}
    return exempt | {attr for module, attr, _ in load_spans().PATCHES if module.startswith("spikelab.")}


def test_exempt_reads_code_in_the_readme_not_prose():
    # The README names these three in inline code and uses "places" only as a word of prose.
    exempt = _exempt()
    assert {"signed_distance", "quantile_discretize", "workspace"} <= exempt
    assert "places" not in exempt


def test_every_public_definition_is_used_documented_or_patched():
    trees, exempt = _trees(), _exempt()
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


def test_every_public_method_is_used_documented_or_patched():
    # A method or property that only the tests read is a query the package does not make.
    trees, exempt = _trees(), _exempt()
    unused = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in exempt
        and not any(node.name in _uses(other, {node}) for other in trees.values())
    ]
    assert unused == []


def test_every_private_function_has_a_caller_in_the_package():
    # A private helper that only the tests call belongs in the tests.
    trees = _trees()
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not any(node.name in _uses(other, {node}) for other in trees.values())
    ]
    assert unused == []


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


def test_only_the_measure_and_the_theory_read_merge_tol():
    # MERGE_TOL merges atoms and keeps each family's spikes off them; ensemble and verify
    # reach that rule through the spec's context.
    readers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "MERGE_TOL" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    }
    assert readers == {"measure.py", "free_additive.py", "free_multiplicative.py"}


def test_one_support_routine_serves_both_families():
    # Each support pairs the images of consecutive outlier-set ends in free_additive's one
    # routine: verdicts keeps only the result types, and the touch rule has one reader.
    verdicts = ast.parse((PACKAGE / "verdicts.py").read_text(encoding="utf-8"))
    assert [node.name for node in verdicts.body if isinstance(node, ast.FunctionDef)] == []
    readers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "_TOUCH_TOL" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    }
    assert readers == {"free_additive.py"}
    tree = ast.parse((PACKAGE / "free_multiplicative.py").read_text(encoding="utf-8"))
    support = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "support")
    called = {
        (node.func.value.id, node.func.attr)
        for node in ast.walk(support)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    }
    assert ("free_additive", "_support_pairs") in called


def test_verify_imports_no_theory_module():
    # verify reads the limiting law from the spec: spec.limit and spec.family.
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or "", *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported if "free_" in name}


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


def test_the_theory_modules_loop_only_in_the_v_squared_solve():
    # Every root but v^2 comes from rootfind.newton: no while loop, and one range loop.
    loops = []
    for name in ("free_additive.py", "free_multiplicative.py"):
        for func in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                ranged = isinstance(node, ast.For) and getattr(node.iter, "func", None)
                if isinstance(node, ast.While) or getattr(ranged, "id", None) == "range":
                    loops.append((name, func.name, type(node).__name__))
    assert loops == [("free_additive.py", "_v_squared", "For")]


def test_every_module_constant_is_read_in_the_package():
    # A tolerance or table that no code reads any more goes with its last reader.
    trees = _trees()
    unread = [
        f"{module}.{target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
        and not any(target.id in _uses(other, {node}) for other in trees.values())
    ]
    assert unread == []


def test_every_error_class_is_raised_in_the_package():
    # Each class of the taxonomy names a failure that some code reports; SpikelabError is the base.
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert sorted(classes - raised - {"SpikelabError"}) == []
