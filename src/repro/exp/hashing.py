"""Canonical serialization and content hashing for experiment jobs.

Job identity is *content-addressed*: two jobs hash equal exactly when they
would produce the same :class:`~repro.sim.ConstrainedSimulationResult` —
same trace source, workload, seed, run index, constraints, protocol and
copy semantics.  Names, descriptions and grid packaging (which
experiment spec a job came from, how many sibling seeds it had) are
deliberately excluded, so extending a grid or renaming an experiment reuses
every already-stored record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
from typing import Any

import numpy as np

from ..scenario.base import SpecBase, registered_kind_of

__all__ = ["canonical", "canonical_json", "stable_hash"]

#: Hex digest length used for job/trace keys (64 bits — ample for the
#: thousands-of-jobs grids this repo runs, and short enough to eyeball).
DIGEST_CHARS = 16


def canonical(value: Any) -> Any:
    """*value* as a JSON-serializable structure with a stable shape.

    Dataclasses become ``{"__type__": "<module>.<qualname>", **fields}``
    (init fields only, recursively), sequences become lists, numpy scalars
    collapse to their Python equivalents.  Raises :class:`TypeError` for
    anything without an obvious canonical form rather than guessing.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        kind = f"{type(value).__module__}.{type(value).__qualname__}"
        if isinstance(value, SpecBase):
            # registered specs are tagged by their category:kind — unique
            # by construction and stable across module refactors, so a
            # persistent store keyed on these hashes survives code moves
            registered = registered_kind_of(type(value))
            if registered is not None:
                kind = f"spec:{registered}"
        payload = {"__type__": kind}
        for spec in dataclasses.fields(value):
            if not spec.init or spec.name.startswith("_"):
                continue
            payload[spec.name] = canonical(getattr(value, spec.name))
        return payload
    if isinstance(value, dict):
        return {str(key): canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # 1800 and 1800.0 compare equal in Python (and in every dataclass
        # the grid hashes), so they must share a storage key too
        return int(value) if value.is_integer() else value
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, np.generic):  # numpy scalars
        return canonical(value.item())
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType,
                          types.MethodType)) or isinstance(value, type):
        # code has no capturable content — two different lambdas would
        # silently hash identically, poisoning the store
        raise TypeError(
            f"cannot canonicalize callable {value!r}: job identity must "
            f"be data, not code")
    state = getattr(value, "__dict__", None)
    if state is None:
        slots = [name for klass in type(value).__mro__
                 for name in getattr(klass, "__slots__", ())]
        if slots:
            state = {name: getattr(value, name) for name in slots
                     if hasattr(value, name)}
    if state is not None:
        # plain objects (e.g. a custom WorkloadSpec that is neither a
        # dataclass nor slotted the usual way): hash the full instance
        # state — underscore attributes included, since that is where
        # ordinary Python classes keep behavioral state and dropping them
        # would collide differently-behaving objects onto one hash
        kind = f"{type(value).__module__}.{type(value).__qualname__}"
        payload = {"__type__": kind}
        for name in sorted(state):
            payload[name] = canonical(state[name])
        return payload
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} value {value!r}")


def canonical_json(value: Any) -> str:
    """The canonical form rendered as deterministic, compact JSON."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def stable_hash(value: Any, length: int = DIGEST_CHARS) -> str:
    """A short, stable, content-addressed hex digest of *value*."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]
