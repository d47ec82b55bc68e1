"""Abstract syntax tree of the C++ subset.

The three code-generation patterns emit this AST; the MGCC frontend
consumes it.  It deliberately covers only what generated state-machine
code needs (the paper's generators emit a similarly constrained dialect):

* translation units with enums, extern "C" declarations, globals with
  static initializers (for transition tables and vtable-backed state
  singletons), free functions, and classes;
* classes with fields, (virtual) methods and single inheritance;
* statements: compound, expression, assignment, if/else, while, switch,
  break, return, local declarations;
* expressions: literals, variable/field access, ``this``, unary/binary
  operators, direct calls, method calls (static or virtual dispatch),
  calls through function-pointer table entries, array indexing,
  address-of.

Nodes are plain dataclasses; the printer renders them as compilable C++
for inspection and golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .types import INT, VOID, FuncPtrType, Type

__all__ = [
    # expressions
    "Expr", "IntLit", "BoolLit", "NullPtr", "EnumRef", "Var", "ThisExpr",
    "FieldAccess", "Unary", "Binary", "Call", "MethodCall", "IndirectCall",
    "Index", "AddrOf", "FuncRef", "Cast",
    # statements
    "Stmt", "ExprStmt", "Assign", "VarDecl", "If", "While", "Switch",
    "SwitchCase", "Break", "Return", "Block",
    # declarations
    "Param", "Field", "Method", "ClassDecl", "Function", "EnumDecl",
    "GlobalVar", "ExternFunction", "Initializer", "StructInit", "ArrayInit",
    "TranslationUnit",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expressions."""


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class NullPtr(Expr):
    pass


@dataclass(frozen=True)
class EnumRef(Expr):
    """Reference to an enumerator, e.g. ``STATE_S1``."""

    enum_name: str
    enumerator: str


@dataclass(frozen=True)
class Var(Expr):
    """Local variable, parameter, or global, by name."""

    name: str


@dataclass(frozen=True)
class ThisExpr(Expr):
    pass


@dataclass(frozen=True)
class FieldAccess(Expr):
    """``obj->field`` (obj is always a pointer in the subset)."""

    obj: Expr
    field_name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "!", "-"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / % < <= > >= == != && ||
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    """Direct call of a free / extern function."""

    func: str
    args: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class MethodCall(Expr):
    """``obj->method(args)``; ``virtual_dispatch`` selects vtable dispatch
    (the State-Pattern hot path) vs. a direct, devirtualized call."""

    obj: Expr
    class_name: str
    method: str
    args: Tuple[Expr, ...] = ()
    virtual_dispatch: bool = False


@dataclass(frozen=True)
class IndirectCall(Expr):
    """Call through a function pointer value (table pattern)."""

    target: Expr
    args: Tuple[Expr, ...] = ()
    signature: Optional[FuncPtrType] = None


@dataclass(frozen=True)
class Index(Expr):
    array: Expr
    index: Expr


@dataclass(frozen=True)
class AddrOf(Expr):
    """``&global`` — address of a global object (state singletons)."""

    operand: Expr


@dataclass(frozen=True)
class FuncRef(Expr):
    """Reference to a function as a value (for table initializers)."""

    func: str


@dataclass(frozen=True)
class Cast(Expr):
    to: Type
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class for statements."""


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)

    def add(self, stmt: Stmt) -> "Block":
        self.statements.append(stmt)
        return self


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Assign(Stmt):
    """``lhs = rhs;`` where lhs is a Var, FieldAccess or Index."""

    lhs: Expr
    rhs: Expr


@dataclass
class VarDecl(Stmt):
    name: str
    var_type: Type
    init: Optional[Expr] = None


@dataclass
class If(Stmt):
    cond: Expr
    then_body: Block
    else_body: Optional[Block] = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Block = field(default_factory=Block)


@dataclass
class SwitchCase:
    """One ``case`` arm; ``values`` lists the (possibly multiple) labels."""

    values: List[Expr]
    body: Block = field(default_factory=Block)
    falls_through: bool = False  # emit without trailing break


@dataclass
class Switch(Stmt):
    subject: Expr
    cases: List[SwitchCase] = field(default_factory=list)
    default: Optional[Block] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass
class Param:
    name: str
    param_type: Type


@dataclass
class Field:
    name: str
    field_type: Type
    init: Optional[Expr] = None  # constructor-time initializer


@dataclass
class Method:
    name: str
    params: List[Param] = field(default_factory=list)
    ret: Type = VOID
    body: Optional[Block] = None  # None => pure virtual
    is_virtual: bool = False
    is_override: bool = False
    is_static: bool = False


@dataclass
class ClassDecl:
    name: str
    base: Optional[str] = None
    fields: List[Field] = field(default_factory=list)
    methods: List[Method] = field(default_factory=list)

    def method(self, name: str) -> Method:
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(f"no method {name!r} in class {self.name!r}")


@dataclass
class Function:
    """Free function with a body."""

    name: str
    params: List[Param] = field(default_factory=list)
    ret: Type = VOID
    body: Block = field(default_factory=Block)


@dataclass
class ExternFunction:
    """``extern "C"`` declaration (opaque platform operation)."""

    name: str
    params: List[Param] = field(default_factory=list)
    ret: Type = INT


@dataclass
class EnumDecl:
    name: str
    enumerators: List[str] = field(default_factory=list)

    def value_of(self, enumerator: str) -> int:
        return self.enumerators.index(enumerator)


class Initializer:
    """Base class for static initializers of globals."""


@dataclass
class StructInit(Initializer):
    """Braced initializer: field values in declaration order."""

    values: List[Union[Expr, "Initializer"]] = field(default_factory=list)


@dataclass
class ArrayInit(Initializer):
    elements: List[Union[Expr, "Initializer"]] = field(default_factory=list)


@dataclass
class GlobalVar:
    """File-scope object with static storage (tables, state singletons)."""

    name: str
    var_type: Type
    init: Optional[Union[Expr, Initializer]] = None
    is_const: bool = False  # const => .rodata


@dataclass
class TranslationUnit:
    """One generated .cpp file."""

    name: str
    enums: List[EnumDecl] = field(default_factory=list)
    externs: List[ExternFunction] = field(default_factory=list)
    classes: List[ClassDecl] = field(default_factory=list)
    functions: List[Function] = field(default_factory=list)
    globals: List[GlobalVar] = field(default_factory=list)

    def enum(self, name: str) -> EnumDecl:
        for e in self.enums:
            if e.name == name:
                return e
        raise KeyError(f"no enum {name!r} in unit {self.name!r}")

    def cls(self, name: str) -> ClassDecl:
        for c in self.classes:
            if c.name == name:
                return c
        raise KeyError(f"no class {name!r} in unit {self.name!r}")

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function {name!r} in unit {self.name!r}")
