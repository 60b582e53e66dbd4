"""The package's public surface, and the separation between the library and
the brute-force oracles in ``tests/oracles.py``."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import treeshell

MODULES = ["treeshell"] + [f"treeshell.{m.name}"
                           for m in pkgutil.iter_modules(treeshell.__path__)]
ORACLES = pathlib.Path(__file__).with_name("oracles.py")
MOVED = ("entropy_max_oracle", "measure_from_enumeration", "enumerate_log2_F",
         "_ENUMERATION_NODES", "xi_from_generation_sums", "coefficient_l2",
         "csv_text_oracle", "rk4_step_oracle", "_rhs_core",
         "flux_terms_oracle", "pull_row_oracle", "residual_max_oracle")
# the fast paths the oracles check, which they must not call
FAST_PATHS = {"measure", "dim_D", "dim_D_of_multiset", "phi_inverse",
              "zeta_raw", "synthesize", "_write_csv", "_Rk4", "advance",
              "step", "rhs", "integrate", "flux_terms", "energy_balance",
              "pullback", "_pull_row", "_child_terms", "residual_max",
              "_row_reduction", "_reduce_rows"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_library_does_not_refer_to_the_oracles(name):
    source = pathlib.Path(importlib.import_module(name).__file__).read_text()
    assert [n for n in MOVED if n in source] == []


def test_oracles_call_no_fast_path():
    called = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            called.add(f.id if isinstance(f, ast.Name)
                       else f.attr if isinstance(f, ast.Attribute) else None)
        elif isinstance(node, ast.alias):
            called.add(node.name)  # an imported fast path could be renamed
    assert called & FAST_PATHS == set()


def _budget_raises(node) -> list:
    """The ``raise ResourceLimitError(...)`` statements under node."""
    return [r for r in ast.walk(node) if isinstance(r, ast.Raise)
            and getattr(getattr(r.exc, "func", r.exc), "id", None)
            == "ResourceLimitError"]


def test_only_check_budget_raises_resource_limit_error():
    # one home for the budget policy: every size meets its budget there
    sites = []
    for name in MODULES:
        tree = ast.parse(pathlib.Path(
            importlib.import_module(name).__file__).read_text())
        home = {id(r) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "check_budget"
                for r in _budget_raises(f)}
        sites += [(name, id(r) in home) for r in _budget_raises(tree)]
    assert sites == [("treeshell.solution", True)]


def _raises(node, scope=()):
    """(qualified scope, exception name) of every ``raise`` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = getattr(child.exc, "func", child.exc)
            yield ".".join(scope), getattr(exc, "id", None)
        inner = scope + ((child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else ())
        yield from _raises(child, inner)


def test_every_library_raise_outside_three_sites_is_a_value_error():
    # the exception type sets the CLI exit code: a ValueError is an input
    # check (exit 2), a numeric failure is one of the two sites below (exit 1)
    others = []
    for name in MODULES:
        tree = ast.parse(pathlib.Path(
            importlib.import_module(name).__file__).read_text())
        others += [(name, scope, exc) for scope, exc in _raises(tree)
                   if exc != "ValueError"]
    assert sorted(others) == [
        ("treeshell.dynamics", "_Rk4.advance", "FloatingPointError"),
        ("treeshell.dynamics", "integrate", "RuntimeError"),
        ("treeshell.solution", "check_budget", "ResourceLimitError")]
