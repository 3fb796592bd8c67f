"""The package's surface: its settable values and the names it exports.

A settable value is a parameter with a default of any function, method or
lambda under ``src/regenmc``, or a dataclass field with a default.  Every one
is an option a caller may set.  The count is pinned: it may grow only
together with a reason for the new option, and a change that removes an
option lowers the pin with it.

Every name ``regenmc/__init__.py`` imports must be reached from a run of the
package, an acceptance criterion or a demo, so that library code only tests
read does not grow back.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "regenmc"
MAX_SETTABLE = 51
# The concentration calculators are not yet tied to data; they stay exported
# until ROADMAP item 10 either ties them to a run or deletes them.
UNREACHED_EXPORTS = {"expected_supremum_bound", "excess_probability_bound",
                     "high_probability_level"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> list:
    """(owner name, count) for each function, lambda and dataclass with defaults."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            n = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            name = getattr(node, "name", "<lambda>")
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n = sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
            name = node.name
        else:
            continue
        if n:
            found.append((name, n))
    return found


def test_counter_rule():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x, y=0: x\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    u: int\n"
        "    v: int = 3\n"
        "    w = None\n"
        "    def m(self, z=4): pass\n"
        "class Plain:\n"
        "    v: int = 3\n")
    assert sorted(settable_values(tree)) == [("<lambda>", 1), ("C", 1), ("f", 2), ("m", 1)]


def test_settable_values_match_the_pin():
    per_file = {path.name: settable_values(ast.parse(path.read_text()))
                for path in sorted(SRC.glob("*.py"))}
    total = sum(n for found in per_file.values() for _, n in found)
    assert total == MAX_SETTABLE, per_file


def referenced_names(tree: ast.AST) -> set:
    """Names a module reads, as bare names or attributes; definitions are not reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_reference_rule():
    tree = ast.parse(
        "from m import a, b\n"
        "def f(x): return a(x) + m.c\n"
        "class K: pass\n")
    assert referenced_names(tree) == {"a", "m", "c", "x"}


def test_every_export_is_reached_from_a_run_a_criterion_or_a_demo():
    init = SRC / "__init__.py"
    exports = {alias.asname or alias.name for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    readers = ([p for p in sorted(SRC.glob("*.py")) if p != init]
               + sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
    reached = set().union(*(referenced_names(ast.parse(p.read_text())) for p in readers))
    assert sorted(exports - reached - UNREACHED_EXPORTS) == []
    assert UNREACHED_EXPORTS <= exports - reached
