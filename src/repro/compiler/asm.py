"""Assembly module: final artifact of a compilation.

Holds the allocated RTL of every function (with prologue/epilogue
attached) plus the rodata/data/bss objects, and provides the size
accounting the experiments report:

* ``text_size``   — sum of encoded instruction bytes;
* ``rodata_size`` — const tables, vtables, jump tables;
* ``data_size``   — initialized mutable globals;
* ``bss_size``    — zero-initialized globals (no image bytes);
* ``total_size``  — text + rodata + data, the reproduction's analogue of
  the paper's "size of the generated assembly code" in bytes.

``listing()`` renders a human-readable .s file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .gimple.ir import DataObject, SymbolRef
from .rtl.ir import RTLFunction
from .target.description import TargetDescription

__all__ = ["AsmModule"]


@dataclass
class AsmModule:
    """A fully lowered translation unit."""

    name: str
    functions: List[RTLFunction] = field(default_factory=list)
    data_objects: List[DataObject] = field(default_factory=list)
    target: Optional[TargetDescription] = None  # ISA the module targets

    # -- sizes -------------------------------------------------------------
    @property
    def text_size(self) -> int:
        return sum(fn.text_size for fn in self.functions)

    def _section_size(self, section: str) -> int:
        return sum(obj.size for obj in self.data_objects
                   if obj.section == section)

    @property
    def rodata_size(self) -> int:
        return self._section_size("rodata")

    @property
    def data_size(self) -> int:
        return self._section_size("data")

    @property
    def bss_size(self) -> int:
        return self._section_size("bss")

    @property
    def total_size(self) -> int:
        """Image bytes: text + rodata + data (bss occupies no image)."""
        return self.text_size + self.rodata_size + self.data_size

    def function_sizes(self) -> Dict[str, int]:
        return {fn.name: fn.text_size for fn in self.functions}

    def function(self, name: str) -> RTLFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function {name!r} in module {self.name!r}")

    # -- rendering -----------------------------------------------------------
    def listing(self) -> str:
        target_note = f" target={self.target.name}" if self.target else ""
        lines: List[str] = [f"; module {self.name}{target_note}",
                            f"; text={self.text_size} rodata="
                            f"{self.rodata_size} data={self.data_size} "
                            f"bss={self.bss_size} total={self.total_size}",
                            "", ".text"]
        for fn in self.functions:
            lines.append(fn.listing())
            lines.append(f"; size({fn.name}) = {fn.text_size}")
            lines.append("")
        for section in ("rodata", "data", "bss"):
            objs = [o for o in self.data_objects if o.section == section]
            if not objs:
                continue
            lines.append(f".{section}")
            for obj in objs:
                words = ", ".join(
                    f"@{w.symbol}" if isinstance(w, SymbolRef) else str(w)
                    for w in obj.words)
                lines.append(f"{obj.name}: .word {words}   ; "
                             f"{obj.size} bytes")
            lines.append("")
        return "\n".join(lines)

    def size_report(self) -> str:
        """One-line size breakdown for experiment tables."""
        return (f"{self.name}: total={self.total_size}B "
                f"(text={self.text_size}, rodata={self.rodata_size}, "
                f"data={self.data_size}, bss={self.bss_size})")
