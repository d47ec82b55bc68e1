"""Type system of the C++ subset.

The subset is what embedded state-machine code generators actually emit:
``int``/``bool``/``void``, enums, pointers, fixed-size arrays, classes
with single inheritance and virtual functions, and function types for
member-function pointers (used by the state-transition-table pattern).

Types are immutable value objects; ``sizeof``/alignment follow a 32-bit
ILP32 target (the RT32 backend), which is what the paper's embedded
setting implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Type", "VoidType", "IntType", "BoolType", "EnumType",
           "PointerType", "ArrayType", "ClassRefType", "FuncPtrType",
           "VOID", "INT", "BOOL", "size_of"]

POINTER_SIZE = 4  # ILP32


class Type:
    """Base class for types (immutable)."""


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """32-bit signed integer."""

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class BoolType(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class EnumType(Type):
    """A named enumeration (represented as int at runtime)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClassRefType(Type):
    """Reference to a class by name (used for fields/pointers)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType(Type):
    pointee: Type

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    length: int

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


@dataclass(frozen=True)
class FuncPtrType(Type):
    """Pointer to function / member function (table pattern callbacks)."""

    ret: Type
    params: Tuple[Type, ...] = ()

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"{self.ret}(*)({params})"


VOID = VoidType()
INT = IntType()
BOOL = BoolType()


def size_of(tp: Type, class_sizes=None) -> int:
    """Byte size of *tp* on the RT32 target.

    ``class_sizes`` maps class name -> byte size for by-value class
    fields (filled in by the compiler frontend's layout pass).
    """
    if isinstance(tp, (IntType, BoolType, EnumType)):
        return 4  # bool stored as a word, typical of 32-bit embedded ABIs
    if isinstance(tp, (PointerType, FuncPtrType)):
        return POINTER_SIZE
    if isinstance(tp, ArrayType):
        return tp.length * size_of(tp.element, class_sizes)
    if isinstance(tp, ClassRefType):
        if class_sizes and tp.name in class_sizes:
            return class_sizes[tp.name]
        raise ValueError(f"unknown class size for {tp.name!r}")
    if isinstance(tp, VoidType):
        raise ValueError("void has no size")
    raise ValueError(f"size_of: unhandled type {tp!r}")
