"""A small action language for guards, effects and state behaviors.

UML leaves the concrete action language open; tools like Papyrus attach
"opaque" expressions/behaviors written in the target language.  For this
reproduction we define a tiny, well-typed language that

* the model interpreter (:mod:`repro.semantics.runtime`) can evaluate,
* the analyses (:mod:`repro.analysis`) can reason about (e.g. constant
  guards), and
* the code generators (:mod:`repro.codegen`) can translate into the C++
  subset consumed by the compiler substrate.

The language has integer and boolean expressions over named context
attributes, plus statements: assignment, external function calls (opaque
platform actions such as ``motor_start()``) and event emission to self.

Expressions are immutable value objects; structural equality and hashing
are provided so analyses can use them in sets/dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Tuple, Union

__all__ = [
    "Expr",
    "IntLit",
    "BoolLit",
    "VarRef",
    "UnaryOp",
    "BinOp",
    "CallExpr",
    "Stmt",
    "Assign",
    "CallStmt",
    "EmitStmt",
    "Behavior",
    "EvalError",
    "free_variables",
    "called_functions",
    "eval_expr",
    "const_fold",
    "TRUE_GUARD",
    "FALSE_GUARD",
    "parse_expr",
    "ParseError",
]

_INT_BIN_OPS = {"+", "-", "*", "/", "%"}
_CMP_OPS = {"<", "<=", ">", ">=", "==", "!="}
_BOOL_BIN_OPS = {"&&", "||"}
_ALL_BIN_OPS = _INT_BIN_OPS | _CMP_OPS | _BOOL_BIN_OPS


class EvalError(Exception):
    """Raised when an expression cannot be evaluated (missing variable,
    division by zero, unknown operator)."""


class Expr:
    """Base class for expressions (immutable)."""

    def children(self) -> Iterator["Expr"]:
        return iter(())

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class IntLit(Expr):
    """Integer literal."""

    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    """Boolean literal."""

    value: bool


@dataclass(frozen=True)
class VarRef(Expr):
    """Reference to a context attribute by name."""

    name: str


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operator: ``!`` (logical not) or ``-`` (negation)."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("!", "-"):
            raise ValueError(f"unknown unary operator {self.op!r}")

    def children(self) -> Iterator[Expr]:
        yield self.operand


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operator over the arithmetic/comparison/boolean op sets."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in _ALL_BIN_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def children(self) -> Iterator[Expr]:
        yield self.lhs
        yield self.rhs


@dataclass(frozen=True)
class CallExpr(Expr):
    """Call of an opaque external function returning int.

    External functions model platform services (sensor reads, RNG, ...).
    The interpreter resolves them through an environment mapping; code
    generation emits an ``extern "C"`` call.
    """

    func: str
    args: Tuple[Expr, ...] = ()

    def children(self) -> Iterator[Expr]:
        return iter(self.args)


TRUE_GUARD = BoolLit(True)
FALSE_GUARD = BoolLit(False)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class for statements appearing in behaviors."""

    def expressions(self) -> Iterator[Expr]:
        return iter(())


@dataclass(frozen=True)
class Assign(Stmt):
    """Assignment to a context attribute: ``target = value``."""

    target: str
    value: Expr

    def expressions(self) -> Iterator[Expr]:
        yield self.value


@dataclass(frozen=True)
class CallStmt(Stmt):
    """Opaque external call for effect, e.g. ``led_on()``."""

    call: CallExpr

    def expressions(self) -> Iterator[Expr]:
        yield self.call


@dataclass(frozen=True)
class EmitStmt(Stmt):
    """Send a signal event to the owning state machine itself."""

    event_name: str


@dataclass(frozen=True)
class Behavior:
    """A named sequence of statements (entry/exit/effect bodies)."""

    name: str = ""
    statements: Tuple[Stmt, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.statements)

    def expressions(self) -> Iterator[Expr]:
        for stmt in self.statements:
            yield from stmt.expressions()


# ---------------------------------------------------------------------------
# Analysis helpers
# ---------------------------------------------------------------------------

def free_variables(expr: Expr) -> frozenset:
    """Set of context attribute names referenced by *expr*."""
    return frozenset(node.name for node in expr.walk() if isinstance(node, VarRef))


def called_functions(expr: Expr) -> frozenset:
    """Set of external function names called by *expr*."""
    return frozenset(node.func for node in expr.walk() if isinstance(node, CallExpr))


Value = Union[int, bool]


def _as_int(value: Value) -> int:
    return int(value)


def _as_bool(value: Value) -> bool:
    return bool(value)


def eval_expr(expr: Expr, env: Mapping[str, Value],
              externals: Mapping[str, object] = None) -> Value:
    """Evaluate *expr* in variable environment *env*.

    ``externals`` maps external function names to Python callables; a
    missing external raises :class:`EvalError` (guards in the paper's
    models never call externals, effects may).
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, VarRef):
        if expr.name not in env:
            raise EvalError(f"unbound variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, UnaryOp):
        val = eval_expr(expr.operand, env, externals)
        if expr.op == "!":
            return not _as_bool(val)
        return -_as_int(val)
    if isinstance(expr, BinOp):
        if expr.op in _BOOL_BIN_OPS:
            lhs = _as_bool(eval_expr(expr.lhs, env, externals))
            # Short-circuit like C++.
            if expr.op == "&&":
                return lhs and _as_bool(eval_expr(expr.rhs, env, externals))
            return lhs or _as_bool(eval_expr(expr.rhs, env, externals))
        lhs_v = eval_expr(expr.lhs, env, externals)
        rhs_v = eval_expr(expr.rhs, env, externals)
        if expr.op in _CMP_OPS:
            li, ri = _as_int(lhs_v), _as_int(rhs_v)
            return {
                "<": li < ri, "<=": li <= ri, ">": li > ri,
                ">=": li >= ri, "==": li == ri, "!=": li != ri,
            }[expr.op]
        li, ri = _as_int(lhs_v), _as_int(rhs_v)
        if expr.op == "+":
            return li + ri
        if expr.op == "-":
            return li - ri
        if expr.op == "*":
            return li * ri
        if ri == 0:
            raise EvalError(f"division by zero in {expr.op!r}")
        if expr.op == "/":
            return int(li / ri)  # C-style truncation toward zero
        return li - int(li / ri) * ri
    if isinstance(expr, CallExpr):
        if externals is None or expr.func not in externals:
            raise EvalError(f"unbound external function {expr.func!r}")
        args = [eval_expr(a, env, externals) for a in expr.args]
        return int(externals[expr.func](*args))
    raise EvalError(f"cannot evaluate {expr!r}")


def const_fold(expr: Expr) -> Expr:
    """Fold constant sub-expressions; returns a (possibly) simpler Expr.

    Used by the model-level guard-simplification pass.  External calls are
    never folded (they may have side effects / vary between calls).
    """
    if isinstance(expr, (IntLit, BoolLit, VarRef)):
        return expr
    if isinstance(expr, UnaryOp):
        operand = const_fold(expr.operand)
        if isinstance(operand, (IntLit, BoolLit)):
            try:
                return _lit(eval_expr(UnaryOp(expr.op, operand), {}))
            except EvalError:
                pass
        return UnaryOp(expr.op, operand)
    if isinstance(expr, BinOp):
        lhs = const_fold(expr.lhs)
        rhs = const_fold(expr.rhs)
        folded = BinOp(expr.op, lhs, rhs)
        if isinstance(lhs, (IntLit, BoolLit)) and isinstance(rhs, (IntLit, BoolLit)):
            try:
                return _lit(eval_expr(folded, {}))
            except EvalError:
                return folded
        # Boolean identities with one constant side.  Dropping the
        # constant operand may only keep the other side when that side is
        # itself boolean-valued: `&&`/`||` normalize to true/false, so
        # `true && x` is 0-or-1 while bare `x` is an arbitrary int.
        if expr.op == "&&":
            if _is_true(lhs) and _is_boolean_valued(rhs):
                return rhs
            if _is_true(rhs) and _is_boolean_valued(lhs):
                return lhs
            # `false && x` never evaluates x (short-circuit), but
            # `x && false` still evaluates x first — dropping x is only
            # sound when it performs no external calls (calls are
            # observable platform actions, even from inside a guard).
            if _is_false(lhs):
                return BoolLit(False)
            if _is_false(rhs) and _is_pure(lhs):
                return BoolLit(False)
        if expr.op == "||":
            if _is_false(lhs) and _is_boolean_valued(rhs):
                return rhs
            if _is_false(rhs) and _is_boolean_valued(lhs):
                return lhs
            if _is_true(lhs):
                return BoolLit(True)
            if _is_true(rhs) and _is_pure(lhs):
                return BoolLit(True)
        return folded
    if isinstance(expr, CallExpr):
        return CallExpr(expr.func, tuple(const_fold(a) for a in expr.args))
    return expr


def _lit(value: Value) -> Expr:
    if isinstance(value, bool):
        return BoolLit(value)
    return IntLit(value)


def _is_true(expr: Expr) -> bool:
    return isinstance(expr, BoolLit) and expr.value is True


def _is_false(expr: Expr) -> bool:
    return isinstance(expr, BoolLit) and expr.value is False


def _is_pure(expr: Expr) -> bool:
    """No external calls anywhere in *expr* (safe to not evaluate)."""
    return not called_functions(expr)


_BOOLEAN_OPS = {"&&", "||", "<", "<=", ">", ">=", "==", "!="}


def _is_boolean_valued(expr: Expr) -> bool:
    """Does *expr* always evaluate to a normalized boolean (0 or 1)?"""
    if isinstance(expr, BoolLit):
        return True
    if isinstance(expr, UnaryOp):
        return expr.op == "!"
    if isinstance(expr, BinOp):
        return expr.op in _BOOLEAN_OPS
    return False


# ---------------------------------------------------------------------------
# Expression parser (for convenient model construction / serialization)
# ---------------------------------------------------------------------------

class ParseError(Exception):
    """Raised on malformed guard expression text."""


_TOKEN_CHARS2 = {"&&", "||", "<=", ">=", "==", "!="}
_TOKEN_CHARS1 = {"+", "-", "*", "/", "%", "<", ">", "!", "(", ")", ","}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pair = text[i:i + 2]
        if pair in _TOKEN_CHARS2:
            tokens.append(pair)
            i += 2
            continue
        if ch in _TOKEN_CHARS1:
            tokens.append(ch)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at offset {i}")
    return tokens


class _Parser:
    """Recursive-descent parser with C-like precedence:
    ``||`` < ``&&`` < comparisons < additive < multiplicative < unary.
    """

    def __init__(self, tokens) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> Expr:
        expr = self.parse_or()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens starting at {self.peek()!r}")
        return expr

    def parse_or(self) -> Expr:
        lhs = self.parse_and()
        while self.peek() == "||":
            self.take()
            lhs = BinOp("||", lhs, self.parse_and())
        return lhs

    def parse_and(self) -> Expr:
        lhs = self.parse_cmp()
        while self.peek() == "&&":
            self.take()
            lhs = BinOp("&&", lhs, self.parse_cmp())
        return lhs

    def parse_cmp(self) -> Expr:
        lhs = self.parse_add()
        while self.peek() in _CMP_OPS:
            op = self.take()
            lhs = BinOp(op, lhs, self.parse_add())
        return lhs

    def parse_add(self) -> Expr:
        lhs = self.parse_mul()
        while self.peek() in ("+", "-"):
            op = self.take()
            lhs = BinOp(op, lhs, self.parse_mul())
        return lhs

    def parse_mul(self) -> Expr:
        lhs = self.parse_unary()
        while self.peek() in ("*", "/", "%"):
            op = self.take()
            lhs = BinOp(op, lhs, self.parse_unary())
        return lhs

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok == "!":
            self.take()
            return UnaryOp("!", self.parse_unary())
        if tok == "-":
            self.take()
            return UnaryOp("-", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.take()
        if tok == "(":
            inner = self.parse_or()
            self.expect(")")
            return inner
        if isinstance(tok, tuple) and tok[0] == "int":
            return IntLit(tok[1])
        if isinstance(tok, tuple) and tok[0] == "name":
            name = tok[1]
            if name == "true":
                return BoolLit(True)
            if name == "false":
                return BoolLit(False)
            if self.peek() == "(":
                self.take()
                args = []
                if self.peek() != ")":
                    args.append(self.parse_or())
                    while self.peek() == ",":
                        self.take()
                        args.append(self.parse_or())
                self.expect(")")
                return CallExpr(name, tuple(args))
            return VarRef(name)
        raise ParseError(f"unexpected token {tok!r}")


def parse_expr(text: str) -> Expr:
    """Parse a guard expression from C-like text, e.g. ``"n > 0 && !busy"``."""
    return _Parser(_tokenize(text)).parse()
