"""Every public name of dpaudit is used by the product, not only by tests.

A name exported from ``dpaudit/__init__.py`` must be loaded, as an AST
``Name`` or ``Attribute``, somewhere in ``src/dpaudit`` or ``scripts/``
outside its own definition.  Code that only tests call belongs in
``tests/``.
"""

import ast
from pathlib import Path

import dpaudit

PACKAGE = Path(dpaudit.__file__).resolve().parent
SCRIPTS = PACKAGE.parent.parent / "scripts"

# Documented variants of the bound that the paper states but no command runs.
PAPER_VARIANTS = {"hoeffding_p_value", "adaptive_bound", "p_value_general_p",
                  "replacement_selection", "rdp_membership_accuracy",
                  "generalization_bound"}
# The benchmark's span table wraps it by name; it leaves once that table is
# rebuilt on the survival fill (ROADMAP item 1).
BENCHMARK_SPANS = {"dual_alpha"}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def loaded_names(tree: ast.Module) -> set[str]:
    """Names loaded in a module; a top-level definition's own body does not
    count as a use of its name."""
    used = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                name = node.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_export_is_used_by_product_code():
    files = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    used = set().union(*(loaded_names(ast.parse(f.read_text()))
                         for f in files))
    unused = exported_names() - used - PAPER_VARIANTS - BENCHMARK_SPANS
    assert not unused, f"exported but used only by tests: {sorted(unused)}"
