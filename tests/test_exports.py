"""Every public definition of dpaudit is used by the product, not only by tests.

A public top-level function or class of ``src/dpaudit``, and a public
method of such a class, must be loaded, as an AST ``Name`` or
``Attribute``, somewhere in ``src/dpaudit`` or ``scripts/`` outside its
own definition.  Code that only tests call belongs in ``tests/``.
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
# The benchmark's span table wraps them by name; they leave once that table
# is rebuilt on the survival fill (ROADMAP item 1).
BENCHMARK_SPANS = {"dual_alpha", "DominatingDistribution.from_binomial"}


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class,
    and of each public method of a public class."""
    for top in tree.body:
        if (not isinstance(top, (ast.FunctionDef, ast.ClassDef))
                or top.name.startswith("_")):
            continue
        yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield f"{top.name}.{node.name}", node


def loads(tree: ast.Module):
    """(name, line) of each Name or Attribute that a module loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno


def test_every_public_definition_is_used_by_product_code():
    files = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    trees = {f: ast.parse(f.read_text()) for f in files}
    uses = {f: list(loads(tree)) for f, tree in trees.items()}
    unused = set()
    for f in sorted(PACKAGE.glob("*.py")):
        for qualname, node in public_definitions(trees[f]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (g != f or line not in own)
                       for g, names in uses.items() for name, line in names):
                unused.add(qualname)
    unused -= PAPER_VARIANTS | BENCHMARK_SPANS
    assert not unused, f"defined but used only by tests: {sorted(unused)}"
