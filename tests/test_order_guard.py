"""Order rules between arguments are stated by the rule helpers only.

An ``if`` in ``src/dpaudit`` whose test compares two values that depend on
arguments, with an order or (in)equality operator, and whose body raises
ValueError is a hand-written argument rule.  Outside the three rule
helpers of ``estimator`` only the checks listed below may hold one; an
order between arguments goes through ``estimator.check_order``.
"""

import ast
import builtins
from pathlib import Path

import dpaudit

PACKAGE = Path(dpaudit.__file__).resolve().parent

RULE_HELPERS = {"estimator.check_counts", "estimator.check_reals",
                "estimator.check_order"}
# Shape and equality checks, and the config parser's rules across keys,
# whose errors name config keys as the config tests expect.
ALLOWED = {
    "cli.parse_dpsgd_config",  # m <= dim in whitebox mode, budget <= m
    "dpsgd.LossModel.__post_init__",  # labels of length n
    "dpsgd._coordinates",  # Dirac canary indices in [0, dim)
    "dpsgd.dpsgd_train",  # row widths, canary kind
    "mechanisms.pathological",  # selection length
    "pipeline.count_correct",  # guess and selection lengths
}
COMPARISONS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def module_names(tree: ast.Module) -> set[str]:
    """The names bound at the top of a module: imports, definitions and
    constants; a value built from these alone depends on no argument."""
    names = set(dir(builtins))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def compares_arguments(test: ast.expr, constant: set[str]) -> bool:
    """Whether a comparison in test has two operands that depend on values
    other than module-level names: arguments or what is computed from them."""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and all(
                isinstance(op, COMPARISONS) for op in node.ops):
            varying = [operand for operand in [node.left, *node.comparators]
                       if any(isinstance(n, ast.Name) and n.id not in constant
                              for n in ast.walk(operand))]
            if len(varying) >= 2:
                return True
    return False


def raises_value_error(body: list[ast.stmt]) -> bool:
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) == "ValueError"
               for stmt in body for node in ast.walk(stmt))


def hand_written_rules() -> set[str]:
    """The functions, as module.qualname, that hold a hand-written rule."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        constant = module_names(tree)

        def visit(node, qualname):
            for child in ast.iter_child_nodes(node):
                name = qualname
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = f"{qualname}.{child.name}"
                elif (isinstance(child, ast.If)
                      and compares_arguments(child.test, constant)
                      and raises_value_error(child.body)):
                    found.add(qualname)
                visit(child, name)

        visit(tree, path.stem)
    return found


def test_order_rules_go_through_the_rule_helpers():
    assert sorted(hand_written_rules() - RULE_HELPERS - ALLOWED) == []


def test_allowlist_names_only_live_checks():
    assert sorted(ALLOWED - hand_written_rules()) == []
