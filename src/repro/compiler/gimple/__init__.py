"""GIMPLE: MGCC's mid-level IR and its execution substrate.

Modules and main public names:

* :mod:`.ir` — :class:`Program`, :class:`GimpleFunction` (which keeps
  its predecessor lists and memoizes CFG facts),
  :class:`BasicBlock`, instructions/terminators, :class:`DataObject`;
* :mod:`.cfg` — :func:`reachable_blocks`,
  :func:`remove_unreachable_blocks`, :func:`reverse_postorder`;
* :mod:`.dom` — dominator tree and frontiers for SSA construction
  (:func:`dominators`, computed once per CFG state);
* :mod:`.ssa` — :func:`to_ssa` / :func:`from_ssa` / :func:`verify_ssa`;
* :mod:`.interp` — :class:`GimpleInterpreter`, the mid-level "board"
  that differentially tests generated code against the model (the
  instruction-level analogue lives in :mod:`repro.vm`).
"""
