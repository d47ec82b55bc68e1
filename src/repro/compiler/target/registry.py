"""Registry of available targets.

The driver, the pipeline and the experiment CLI all refer to targets by
name (``--target rt16``); the registry is the single mapping from those
names to :class:`~.description.TargetDescription` instances.  Built-in
targets register themselves on import; out-of-tree targets call
:func:`register_target` the same way.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from .description import TargetDescription

__all__ = ["UnknownTargetError", "register_target", "get_target",
           "available_targets", "resolve_target", "DEFAULT_TARGET_NAME"]

#: Name used whenever a caller does not specify a target (the seed's ISA).
DEFAULT_TARGET_NAME = "rt32"

_REGISTRY: Dict[str, TargetDescription] = {}
_BUILTINS_LOADED = False


class UnknownTargetError(KeyError):
    """Raised when a target name is not registered."""

    def __init__(self, name: str, available: Tuple[str, ...]) -> None:
        super().__init__(name)
        self.target_name = name
        self.available = available

    def __str__(self) -> str:
        return (f"unknown target {self.target_name!r}; available: "
                f"{', '.join(self.available) or '<none>'}")


def _ensure_builtins() -> None:
    """Import the built-in target modules (they self-register).

    The flag is only set after a successful import: a failed builtin
    import must surface again on the next call, not leave the registry
    silently empty.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from . import rt16, rt32  # noqa: F401  (import for side effect)
    _BUILTINS_LOADED = True


def register_target(target: TargetDescription,
                    replace: bool = False) -> TargetDescription:
    """Make *target* available under its name; returns it for chaining."""
    if target.name in _REGISTRY and not replace \
            and _REGISTRY[target.name] is not target:
        raise ValueError(f"target {target.name!r} already registered; "
                         f"pass replace=True to override")
    _REGISTRY[target.name] = target
    return target


def get_target(name: str) -> TargetDescription:
    """Look up a target by name; raises :class:`UnknownTargetError`."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownTargetError(name, available_targets()) from None


def available_targets() -> Tuple[str, ...]:
    """Registered target names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def resolve_target(target: Union[TargetDescription, str, None]
                   ) -> TargetDescription:
    """Accept a description, a name, or None (-> the default target)."""
    if target is None:
        return get_target(DEFAULT_TARGET_NAME)
    if isinstance(target, TargetDescription):
        return target
    return get_target(target)
