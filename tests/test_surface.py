"""Public surface guard: every name the package exports is used by the
library itself, so that an entry point only tests reach cannot linger."""

import ast
from pathlib import Path

import dispersia

PACKAGE = Path(dispersia.__file__).resolve().parent

# exported on purpose although no library module calls them
ALLOWED = {
    "eval_q",  # the paper's Q_r; its tests pin the _q the factored phase runs
    "lri_filter_rescaled",  # criterion 8's independent route to the lri filter
    "step",  # the one entry point taking a negative tau, for the Strang symmetry check
}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names() -> set[str]:
    """Names loaded or taken as attributes in the code of the library
    modules; docstrings, comments and the imports themselves do not count."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_by_the_library_or_allowed():
    unused = exported_names() - referenced_names() - ALLOWED
    assert not unused, f"exported but used by no library module: {sorted(unused)}"


def test_allowed_names_are_still_exported():
    assert ALLOWED <= exported_names()
