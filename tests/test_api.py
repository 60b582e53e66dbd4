"""The package's public surface, its layering, and the separation between
the library and the brute-force oracles in ``tests/oracles.py``."""

import ast
import dataclasses
import importlib
import importlib.util
import math
import pathlib
import pkgutil
import struct
import sys

import numpy as np
import pytest

import treeshell
from treeshell import (ConstantSolution, GeneralCoefficients, RcmModel,
                       dissipation, dynamics, field, lambda_family,
                       model_from_dict, solution, spectra)

MODULES = ["treeshell"] + [f"treeshell.{m.name}"
                           for m in pkgutil.iter_modules(treeshell.__path__)]
ORACLES = pathlib.Path(__file__).with_name("oracles.py")
TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")
MOVED = ("entropy_max_oracle", "measure_from_enumeration", "enumerate_log2_F",
         "_ENUMERATION_NODES", "xi_from_generation_sums", "coefficient_l2",
         "csv_text_oracle", "rk4_step_oracle", "_rhs_core",
         "flux_terms_oracle", "pull_row_oracle", "residual_max_oracle",
         "TreeIndex", "DyadicCube", "point_path", "path_of_point",
         "coefficient_of", "path_log2_sum", "log2_u_of_node", "log2_F",
         "sigma_of", "stationarity_residual")
# the fast paths the oracles check, which they must not call
FAST_PATHS = {"measure", "dim_D", "phi_inverse",
              "zeta_raw", "synthesize", "_write_csv", "_csv_chunks",
              "_byte_chunk", "_format_floats", "_Rk4", "run", "derivative",
              "step", "rhs", "integrate", "flux_terms", "energy_balance",
              "pullback", "_pull_row", "residual_max", "_distinct_slots",
              "_row_reduction", "_reduce_rows", "local_holder",
              "_haar_structure_function", "_increment_power_sums",
              "_column_sum", "_path_sums",
              "_compositions_matrix", "_log2_multinomial"}


# the package's layers, lowest first: a module imports only from lower
# layers; __init__ re-exports the library, and cli reads its __version__
LAYERS = [["tree"], ["coefficients"], ["spectra"], ["solution"],
          ["dissipation", "dynamics", "field"], ["__init__"], ["cli"]]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
SOURCES = {path.stem: ast.parse(path.read_text()) for path in
           sorted(pathlib.Path(treeshell.__file__).parent.glob("*.py"))}


def _package_imports(node) -> list:
    """(import statement, package module it reads, name it takes or None)
    for every import of the package's own modules under node, relative or
    absolute; ``from . import x`` reads module x, or __init__ if x is not
    a module."""
    found = []
    for imp in ast.walk(node):
        if isinstance(imp, ast.Import):
            paths = [a.name.split(".") for a in imp.names]
            found += [(imp, (path + ["__init__"])[1], None) for path in paths
                      if path[0] == "treeshell"]
        elif isinstance(imp, ast.ImportFrom) and (
                imp.level or (imp.module or "").split(".")[0] == "treeshell"):
            path = (imp.module or "").split(".")[0 if imp.level else 1:]
            found += [(imp, path[0] if path and path[0]
                       else a.name if a.name in RANK else "__init__", a.name)
                      for a in imp.names]
    return found


def _private(name) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_package_import_sits_inside_a_function():
    # an import inside a function is how a cycle hides
    inside = [(name, imp.lineno) for name, tree in SOURCES.items()
              for f in ast.walk(tree)
              if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              for imp, _, _ in _package_imports(f)]
    assert inside == []


def test_imports_run_down_the_layers():
    assert sorted(RANK) == sorted(SOURCES)
    upward = [(name, source) for name, tree in SOURCES.items()
              for _, source, _ in _package_imports(tree)
              if RANK[source] >= RANK[name]]
    assert upward == []


def test_private_attributes_are_read_only_at_home():
    # obj._x outside self/cls only in the module that defines _x
    foreign = []
    for name, tree in SOURCES.items():
        nodes = list(ast.walk(tree))
        defined = {n.name for n in nodes if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))} | {
            n.id for n in nodes if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store)} | {
            n.attr for n in nodes if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Store)}
        foreign += [(name, n.attr) for n in nodes
                    if isinstance(n, ast.Attribute) and _private(n.attr)
                    and n.attr not in defined
                    and getattr(n.value, "id", None) not in ("self", "cls")]
    assert foreign == []


def _private_definitions(tree) -> list:
    """(kind, name) of the module's private top-level functions, classes
    and constants, and of its classes' private methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((type(node).__name__, node.name))
        if isinstance(node, ast.ClassDef):
            found += [("method", f"{node.name}.{f.name}") for f in node.body
                      if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [("constant", n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(kind, name) for kind, name in found
            if _private(name.rpartition(".")[2])]


def test_every_private_definition_is_read_in_the_package():
    # a private name that nothing in src/ loads, as a name or an attribute,
    # is dead code: its tests would keep it alive after its last caller left
    loaded = {n.id for tree in SOURCES.values() for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for tree in SOURCES.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    defined = [(module, kind, name) for module, tree in SOURCES.items()
               for kind, name in _private_definitions(tree)]
    assert len(defined) > 50
    assert [d for d in defined if d[2].rpartition(".")[2] not in loaded] == []


def test_private_names_cross_modules_only_out_of_coefficients():
    # coefficients is the one home of the shared kernels (_row_reduction,
    # _reduce_rows, _column_sum, _path_sums) and constants
    crossing = [(name, source, taken) for name, tree in SOURCES.items()
                for _, source, taken in _package_imports(tree)
                if taken and _private(taken) and source != "coefficients"]
    assert crossing == []


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
    tree = ast.parse(ORACLES.read_text())
    # the left-to-right row oracle is in the walked file, so its body is
    # checked with the rest
    assert "left_to_right" in {f.name for f in ast.walk(tree)
                               if isinstance(f, ast.FunctionDef)}
    called = set()
    for node in ast.walk(tree):
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
    assert sites == [("treeshell.tree", True)]


# every public integer argument, and every int field of the input
# dataclasses, as (module.qualified name.parameter, least, a good value,
# the call with that one integer set); coefficients._integer decides each,
# so a bad value is its ValueError, naming the parameter
M1, M2 = (RcmModel.create(1, 1.5, [1.0, 2.0]),
          RcmModel.create(2, 2.0, [1.0, 2.0, 3.0, 5.0]))
U1 = ConstantSolution(M1)
PER_NODE = GeneralCoefficients(2, lambda g: np.full(2**g, 0.5), -1.0, 1.0)
ZEROS = dynamics.TruncatedState.zeros(M1, 2)
TREE = np.array([True, True, False, True, False, False, False])
INTEGER_ARGUMENTS = [
    ("coefficients.RcmModel.d", 1, 2,
     lambda k: RcmModel(k, 2.0, M2.coeffs)),
    ("coefficients.RcmModel.create.d", 1, 2,
     lambda k: RcmModel.create(k, 2.0, M2.deltas)),
    ("coefficients.RcmModel.path_sum_rows.depth", 0, 2,
     lambda k: list(M2.path_sum_rows(0.0, -1.0, 0.5, k))),
    ("coefficients.GeneralCoefficients.arity", 2, 2,
     lambda k: GeneralCoefficients(k, PER_NODE.log2_of, -1.0, 1.0)),
    ("coefficients.GeneralCoefficients.row_log2.generation", 0, 2,
     lambda k: PER_NODE.row_log2(k)),
    ("coefficients.lambda_family.d", 1, 2,
     lambda k: lambda_family(0.2, k)),
    ("coefficients.model_from_dict.d", 1, 2,
     lambda k: model_from_dict({"d": k, "alpha": 2.0,
                                "deltas": [1.0, 2.0, 3.0, 5.0]})),
    ("dissipation.measure.n", 1, 2, lambda k: dissipation.measure(M1, k)),
    ("dissipation.concentration_curve.n_list", 1, 2,
     lambda k: dissipation.concentration_curve(M1, (0.3, 0.6), [k, 40])),
    ("dissipation.lln_sample.n", 1, 2,
     lambda k: dissipation.lln_sample(M1, k, 10)),
    ("dissipation.lln_sample.samples", 1, 2,
     lambda k: dissipation.lln_sample(M1, 100, k)),
    ("dissipation.lln_sample.seed", 0, 2,
     lambda k: dissipation.lln_sample(M1, 100, 10, k)),
    ("dynamics.constant_values.depth", 0, 2,
     lambda k: dynamics.constant_values(U1, k)),
    ("dynamics.TruncatedState.depth", 0, 2,
     lambda k: dynamics.TruncatedState(M1, k, np.ones(7))),
    ("dynamics.TruncatedState.zeros.depth", 0, 2,
     lambda k: dynamics.TruncatedState.zeros(M1, k)),
    ("dynamics.TruncatedState.from_constant.depth", 0, 2,
     lambda k: dynamics.TruncatedState.from_constant(U1, k)),
    ("dynamics.integrate.steps", 0, 2,
     lambda k: dynamics.integrate(ZEROS, 1e-3, k)),
    ("dynamics.integrate.record_every", 1, 2,
     lambda k: dynamics.integrate(ZEROS, 1e-3, 4, k)),
    ("dynamics.flux_terms.depth", 0, 2,
     lambda k: dynamics.flux_terms(M1, k, np.ones(7), TREE)),
    ("field.synthesize.depth", 0, 2, lambda k: field.synthesize(U1, k)),
    ("field.fit_window.depth", 0, 8, lambda k: field.fit_window(k)),
    ("field.fit_window.m_range", 0, 2, lambda k: field.fit_window(8, (k, 4))),
    ("field.structure_function.depth", 0, 8,
     lambda k: field.structure_function(U1, k, [1.0, 2.0])),
    ("field.structure_function.m_range", 0, 2,
     lambda k: field.structure_function(U1, 8, [1.0, 2.0], (k, 4))),
    ("field.besov_epsilon.n_max", 0, 2,
     lambda k: field.besov_epsilon(U1, 0.1, 2.0, k)),
    ("field.local_holder.n_max", 1, 2,
     lambda k: field.local_holder(U1, [0.3], k)),
    ("solution.ConstantSolution.log2_u_rows.depth", 0, 2,
     lambda k: U1.log2_u_rows(k)),
    ("solution.pullback.depth", 1, 2,
     lambda k: solution.pullback(PER_NODE, 1.5, k)),
    ("solution.divergence_witness.steps", 0, 2,
     lambda k: solution.divergence_witness(U1, 0.01, k))]
INTEGER_NAMES = [name for name, *_ in INTEGER_ARGUMENTS]
# the input dataclasses, whose int fields are arguments too
INPUT_CLASSES = ("RcmModel", "GeneralCoefficients", "TruncatedState")


def _integer_parameters() -> set:
    """module.qualified name.parameter of every parameter annotated int or
    Sequence[int] of a public function or method outside tree.py, which
    sits below coefficients, and module.class.field of every int field of
    the input dataclasses."""
    found = set()
    for module, tree in SOURCES.items():
        if module == "tree":
            continue
        scopes = [((), tree)] + [((c.name,), c) for c in tree.body if
                                 isinstance(c, ast.ClassDef)
                                 and not _private(c.name)]
        for scope, node in scopes:
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not _private(f.name):
                    args = f.args.posonlyargs + f.args.args + f.args.kwonlyargs
                    found |= {".".join((module, *scope, f.name, a.arg))
                              for a in args if a.annotation is not None and
                              ast.unparse(a.annotation) in ("int",
                                                            "Sequence[int]")}
                elif (isinstance(f, ast.AnnAssign) and scope[0] in INPUT_CLASSES
                      and ast.unparse(f.annotation) == "int"):
                    found.add(".".join((module, *scope, f.target.id)))
    return found


def test_every_integer_argument_is_in_the_table():
    # a new entry point or field must join the table, and so the rule
    found = _integer_parameters()
    assert {"dissipation.measure.n", "coefficients.RcmModel.d",
            "coefficients.GeneralCoefficients.arity",
            "dynamics.TruncatedState.depth"} <= found
    assert found - set(INTEGER_NAMES) == set()


@pytest.mark.parametrize("bad", [2.5, True, math.nan, math.inf, "3", None],
                         ids=["2.5", "True", "nan", "inf", "str",
                              "least-1"])
@pytest.mark.parametrize("name, least, good, call", INTEGER_ARGUMENTS,
                         ids=INTEGER_NAMES)
def test_a_bad_integer_is_one_value_error(name, least, good, call, bad):
    # each raised a TypeError, an OverflowError or a numpy error, or ran
    # (lln n = 100.5, concentration n = 20.7 as 20, a 2.5-step chain)
    bad = least - 1 if bad is None else bad
    key = name.rsplit(".", 1)[1]
    with pytest.raises(ValueError) as raised:
        call(bad)
    assert str(raised.value) == (f"'{key}' must be an integer >= {least}, "
                                 f"got {bad!r}")


def _same(a, b) -> bool:
    """Whether two results are equal bit for bit, types included."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return struct.pack("d", a) == struct.pack("d", b)
    return a is b or a == b


@pytest.mark.parametrize("name, least, good, call", INTEGER_ARGUMENTS,
                         ids=INTEGER_NAMES)
def test_an_integral_float_or_numpy_int_is_the_int(name, least, good, call):
    want = call(good)
    assert _same(call(float(good)), want)
    assert _same(call(np.int64(good)), want)


@pytest.mark.parametrize("d", [1.0, np.int64(1)])
def test_equal_models_hash_alike(d):
    # a float d hashed differently, and np.int64 raised TypeError
    model = RcmModel.create(d, 1.5, [1, 2])
    assert model == M1 and type(model.d) is int
    assert model.hash() == RcmModel.create(1, 1.5, [1, 2]).hash()


def _raises(node, scope=()):
    """(qualified scope, exception name) of every ``raise`` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = getattr(child.exc, "func", child.exc)
            yield ".".join(scope), getattr(exc, "id", None)
        inner = scope + ((child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else ())
        yield from _raises(child, inner)


def test_every_library_raise_outside_the_numeric_sites_is_a_value_error():
    # the exception type sets the CLI exit code: a ValueError is an input
    # check (exit 2), a numeric failure is one of the sites below (exit 1)
    others = []
    for name in MODULES:
        tree = ast.parse(pathlib.Path(
            importlib.import_module(name).__file__).read_text())
        others += [(name, scope, exc) for scope, exc in _raises(tree)
                   if exc != "ValueError"]
    assert sorted(others) == [
        ("treeshell.cli", "_write_json", "ArithmeticError"),
        ("treeshell.cli", "cmd_simulate", "ArithmeticError"),
        ("treeshell.cli", "cmd_structure", "ArithmeticError"),
        ("treeshell.dynamics", "_Rk4.run", "FloatingPointError"),
        ("treeshell.dynamics", "integrate", "RuntimeError"),
        ("treeshell.tree", "check_budget", "ResourceLimitError")]


def _traced_names() -> list:
    """The (layer, path) pairs of the benchmark tracer's TRACED table, read
    from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["TRACED"]:
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no TRACED table in the tracer")


def test_every_traced_name_resolves():
    # a traced name that a refactor removes would only fail a traced run
    names = _traced_names()
    assert names
    missing = []
    for layer, path in names:
        obj = importlib.import_module(f"treeshell.{layer}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{path}")
    assert missing == []


@pytest.mark.parametrize("workload", ["readme", "bulk", "sweep"])
def test_benchmark_tiny_cases_pass_their_own_checks(workload, tmp_path,
                                                   monkeypatch):
    # a renamed call the benchmark makes, or an output moved past its
    # recorded reference (REF_RTOL), would otherwise fail only a benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cases = workloads.cases(workload, 1, 0, "tiny", str(tmp_path),
                            workloads.load_reference())
    assert cases
    problems = {case.key: case.check(case.run()) for case in cases}
    assert problems == {case.key: [] for case in cases}


def test_legendre_calls_go_through_the_traced_names(monkeypatch):
    # the tracer wraps spectra.dim_D and RepeatedCoefficients.ell, .phi and
    # .phi_inverse, and the evaluation count wraps _tilted_moments: a call
    # path around one of them would read zero with every test green
    from treeshell import RcmModel, spectra
    from treeshell.coefficients import RepeatedCoefficients

    seen = []
    for name in ("ell", "phi_inverse", "_tilted_moments"):
        method = getattr(RepeatedCoefficients, name)
        monkeypatch.setattr(
            RepeatedCoefficients, name,
            lambda self, arg, name=name, method=method:
                seen.append((name, np.ndim(arg) > 0)) or method(self, arg))
    model = RcmModel.create(2, 2.0, [1.0, 2.0, 3.0, 5.0])
    coeffs = model.coeffs
    # (name, whether its argument was an array)
    for call, names in (
            (lambda: spectra.dim_D(model, 1.0),
             {("phi_inverse", False), ("_tilted_moments", False)}),
            (lambda: coeffs.phi(0.7), {("_tilted_moments", False)}),
            (lambda: coeffs.phi_inverse(1.0), {("_tilted_moments", False)}),
            (lambda: spectra.zeta_raw(model, np.arange(4.0)), {("ell", True)}),
            (lambda: spectra.s0(model, 2.0), {("ell", False)}),
            (lambda: spectra.fixed_point_q(model), {("ell", False)})):
        seen.clear()
        call()
        assert names <= set(seen)



BIG = 10**400  # an int past the double range


@pytest.mark.parametrize("call", [
    lambda m, u: spectra.zeta(m, BIG),
    lambda m, u: spectra.zeta(m, [1.0, BIG]),
    lambda m, u: spectra.zeta_raw(m, BIG),
    lambda m, u: spectra.s0(m, BIG),
    lambda m, u: spectra.rate_R(m, BIG),
    lambda m, u: spectra.rate_R(m, [BIG]),
    lambda m, u: spectra.dim_D(m, BIG),
    lambda m, u: spectra.zeta_derivative(m, BIG),
    lambda m, u: field.structure_function(u, 10, BIG),
    lambda m, u: field.structure_function(u, 10, [1.0, BIG]),
    lambda m, u: field.besov_epsilon(u, BIG, 2.0, 4),
    lambda m, u: field.besov_epsilon(u, 0.1, BIG, 4),
    lambda m, u: field.local_holder(u, [BIG], 4),
    lambda m, u: u.sobolev_norm(BIG, 2.0),
    lambda m, u: u.sobolev_norm(0.1, BIG),
    lambda m, u: RcmModel.create(1, 1.5, [True, 2]),
    lambda m, u: RcmModel.create(1, 1.5, ["1", "2"]),
    lambda m, u: m.coeffs.ell(BIG),
    lambda m, u: m.coeffs.phi(BIG),
    lambda m, u: m.coeffs.phi_inverse(BIG),
    lambda m, u: solution.divergence_witness(u, BIG),
    lambda m, u: dynamics.integrate(dynamics.TruncatedState.zeros(m, 2),
                                    BIG, 2),
    lambda m, u: dynamics.step(dynamics.TruncatedState.zeros(m, 2), BIG)],
    ids=["zeta", "zeta-array", "zeta_raw", "s0", "rate_R", "rate_R-array",
         "dim_D", "zeta_derivative", "structure_function",
         "structure_function-array", "besov_epsilon-s", "besov_epsilon-p",
         "local_holder", "sobolev_norm-s", "sobolev_norm-p", "delta-bool",
         "delta-str", "ell", "phi", "phi_inverse",
         "divergence_witness", "integrate", "step"])
def test_every_library_number_is_converted_alike(call):
    # an int past the double range raised OverflowError, and a bool or a
    # string delta built a model; the package's convention is ValueError,
    # whose message names the argument rather than printing its 401 digits
    model = RcmModel.create(1, 1.5, [1.0, 2.0])
    with pytest.raises(ValueError) as raised:
        call(model, ConstantSolution(model))
    assert len(str(raised.value)) < 100
