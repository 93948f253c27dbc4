"""Public surface guard: the modules are the API, and every public name one
of them defines is used by the library itself, so that an entry point only
tests reach cannot linger.  Every private module-level name is read by the
library too, so that a helper a refactor left behind fails here."""

import ast
from pathlib import Path

import dispersia

PACKAGE = Path(dispersia.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# public on purpose although no library module reads them
ALLOWED = {
    "eval_q",  # the paper's Q_r; its tests pin the _q the factored phase runs
    "step",  # the one entry point taking a negative tau, for the Strang symmetry check
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def module_names() -> set[str]:
    """Module-level functions, classes and assigned or annotated constants
    of the library modules."""
    names = set()
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return names


def public_names() -> set[str]:
    return {n for n in module_names() if not n.startswith("_")}


def private_names() -> set[str]:
    return {n for n in module_names() if n.startswith("_")}


def referenced_names() -> set[str]:
    """Names loaded or taken as attributes in the code of the library
    modules; docstrings, comments and the imports themselves do not count."""
    names = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_collector_sees_functions_classes_and_constants():
    # one of each kind, the annotated PRESETS included, so the guard cannot pass vacuously
    assert {"PRESETS", "RATE_COLUMNS", "SweepConfig", "solve"} <= public_names()


def test_every_public_name_is_used_by_the_library_or_allowed():
    unused = public_names() - referenced_names() - ALLOWED
    assert not unused, f"public but read by no library module: {sorted(unused)}"


def test_collector_sees_private_functions_and_constants():
    assert {"_CHUNK", "_certified", "_REQUIRED"} <= private_names()


def test_every_private_name_is_read_by_the_library():
    unused = private_names() - referenced_names()
    assert not unused, f"private but read by no library module: {sorted(unused)}"


def test_allowed_names_are_still_public():
    assert ALLOWED <= public_names()


def test_package_root_imports_nothing():
    # the package root is no second index of the API
    imports = [n for n in ast.walk(_tree(PACKAGE / "__init__.py"))
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imports
