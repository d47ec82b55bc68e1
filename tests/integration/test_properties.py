"""Property-based tests (hypothesis) on the system's core invariants.

* expression parser/printer/evaluator consistency and serialization
  round-trips over random expression trees;
* optimizer behavior preservation over random machine workloads;
* interpreter determinism;
* SSA well-formedness and translation validation (same program behavior
  at -O0 and -Os) over random straight-line/branchy programs;
* size monotonicity: adding dead structure never shrinks generated code.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler import OptLevel, compile_unit
from repro.compiler.gimple.interp import GimpleInterpreter
from repro.cpp import ast as C
from repro.cpp.types import INT
from repro.exec import InterpreterExecutor, run_scenario
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.optim import check_equivalence, optimize
from repro.pipeline import compile_machine
from repro.semantics import observable_equal
from repro.uml import eval_expr, EvalError
from repro.uml.serialize import expr_from_dict, expr_to_dict
from repro.uml import actions as A

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_var_names = st.sampled_from(["x", "y", "count", "mode"])


def exprs(max_depth: int = 4):
    base = st.one_of(
        st.integers(-100, 100).map(A.IntLit),
        st.booleans().map(A.BoolLit),
        _var_names.map(A.VarRef),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "%", "<", "<=",
                                       ">", ">=", "==", "!=", "&&", "||"]),
                      children, children).map(lambda t: A.BinOp(*t)),
            st.tuples(st.sampled_from(["!", "-"]),
                      children).map(lambda t: A.UnaryOp(*t)),
        )

    return st.recursive(base, extend, max_leaves=2 ** max_depth)


ENV = {"x": 3, "y": -2, "count": 7, "mode": 1}


class TestExpressionProperties:
    @given(exprs())
    @settings(max_examples=200)
    def test_serialization_round_trip(self, expr):
        assert expr_from_dict(expr_to_dict(expr)) == expr

    @given(exprs())
    @settings(max_examples=200)
    def test_const_fold_preserves_value(self, expr):
        try:
            expected = eval_expr(expr, ENV)
        except EvalError:
            return  # division by zero somewhere: folding may keep or not
        folded = A.const_fold(expr)
        got = eval_expr(folded, ENV)
        if isinstance(expected, bool) or isinstance(got, bool):
            # Boolean operators may fold `true && e` to `e`; guards are
            # evaluated in a boolean context, so truthiness is the
            # preserved property (C++ `&&` likewise yields bool).
            assert bool(got) == bool(expected)
        else:
            assert got == expected

    @given(exprs())
    @settings(max_examples=100)
    def test_free_variables_subset_of_env(self, expr):
        assert A.free_variables(expr) <= set(ENV)

    @given(exprs(max_depth=3))
    @settings(max_examples=100)
    def test_eval_is_deterministic(self, expr):
        try:
            first = eval_expr(expr, ENV)
        except EvalError:
            return
        assert eval_expr(expr, ENV) == first


workload_specs = st.builds(
    WorkloadSpec,
    n_live=st.integers(2, 6),
    n_dead=st.integers(0, 3),
    n_shadowed_composites=st.integers(0, 1),
    composite_width=st.integers(1, 3),
    entry_calls=st.integers(0, 2),
    exit_calls=st.integers(0, 1),
    events_per_state=st.integers(1, 2),
    seed=st.integers(0, 2 ** 16),
)


class TestModelProperties:
    @given(workload_specs)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_optimizer_preserves_behavior(self, spec):
        machine = generate_machine(spec)
        optimized = optimize(machine).optimized
        report = check_equivalence(machine, optimized,
                                   exhaustive_depth=1, n_random=6,
                                   random_length=8)
        assert report.equivalent, report.summary()

    @given(workload_specs)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_optimizer_never_grows_generated_code(self, spec):
        machine = generate_machine(spec)
        optimized = optimize(machine).optimized
        before = compile_machine(machine, "nested-switch").total_size
        after = compile_machine(optimized, "nested-switch").total_size
        assert after <= before

    @given(workload_specs, st.lists(st.integers(1, 12), max_size=10))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_interpreter_deterministic(self, spec, event_ids):
        machine = generate_machine(spec)
        events = [f"ev{i}" for i in event_ids]
        a = run_scenario(InterpreterExecutor(), machine, events).inner
        b = run_scenario(InterpreterExecutor(), machine, events).inner
        assert observable_equal(a.trace, b.trace)
        assert a.active_states == b.active_states

    @given(st.integers(0, 4), st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dead_states_only_add_size(self, n_dead, seed):
        clean = generate_machine(WorkloadSpec(n_live=3, seed=seed))
        dirty = generate_machine(WorkloadSpec(n_live=3, n_dead=n_dead,
                                              seed=seed))
        size_clean = compile_machine(clean, "nested-switch").total_size
        size_dirty = compile_machine(dirty, "nested-switch").total_size
        assert size_dirty >= size_clean


def _random_program_unit(ops, consts):
    """Straight-line arithmetic over two params with a branch, as C++."""
    unit = C.TranslationUnit("t")
    expr: C.Expr = C.Var("a")
    for op, k in zip(ops, consts):
        if op in ("/", "%"):
            # Guard against division by zero: use a non-zero constant.
            k = k if k != 0 else 1
            expr = C.Binary(op, expr, C.IntLit(k))
        else:
            expr = C.Binary(op, expr, C.Binary("+", C.Var("b"),
                                               C.IntLit(k)))
    body = C.Block()
    body.add(C.VarDecl("v", INT, expr))
    body.add(C.If(C.Binary("<", C.Var("v"), C.IntLit(0)),
                  C.Block([C.Return(C.Unary("-", C.Var("v")))]),
                  C.Block([C.Return(C.Var("v"))])))
    unit.functions.append(C.Function(
        "f", [C.Param("a", INT), C.Param("b", INT)], INT, body))
    return unit


class TestTranslationValidation:
    @given(st.lists(st.sampled_from(["+", "-", "*", "/", "%"]),
                    min_size=1, max_size=6),
           st.lists(st.integers(-50, 50), min_size=6, max_size=6),
           st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_result_at_o0_and_os(self, ops, consts, a, b):
        unit = _random_program_unit(ops, consts)
        results = {}
        for level in (OptLevel.O0, OptLevel.OS):
            compiled = compile_unit(unit, level)
            interp = GimpleInterpreter(compiled.program)
            try:
                results[level] = interp.call("f", (a, b))
            except Exception as exc:  # division by zero at runtime
                results[level] = type(exc).__name__
        assert results[OptLevel.O0] == results[OptLevel.OS]
