"""Stable content-addressed cache keys.

A cache key must be identical across processes and interpreter restarts
whenever the *semantic* inputs of a stage are identical, and
must change whenever any of them changes.  Keys are therefore SHA-256
digests over a canonical JSON rendering of

* the **stage name** (``"mc"``, ``"boundary"``, ...),
* a **code-version salt** — the global cache schema version plus a
  per-stage version number that call sites bump whenever the algorithm
  behind the stage changes its output,
* the canonicalized **key parts**: configuration fields, seeds and the
  digests of input arrays.

Canonicalization rules: dataclasses become sorted dicts, tuples become
lists, numpy scalars become Python scalars, and numpy arrays are replaced
by their content digest (dtype + shape + C-order bytes).  Floats rely on
``repr`` round-tripping (exact for IEEE doubles), so ``0.1`` hashes the
same everywhere.  Anything else is rejected loudly — a silently unstable
key (e.g. an object hashed by ``id``) would poison the cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np

#: Global schema salt: bump when the key or entry format itself changes.
CACHE_SCHEMA_VERSION = 1

#: Length of the hex key used for entry filenames (128 bits of SHA-256).
KEY_HEX_LENGTH = 32


class CacheKeyError(TypeError):
    """Raised when a value cannot be canonicalized into a stable key."""


def digest_array(array: np.ndarray) -> str:
    """Content digest of one array: dtype, shape and C-order bytes."""
    array = np.asarray(array)
    hasher = hashlib.sha256()
    hasher.update(array.dtype.str.encode("ascii"))
    hasher.update(repr(array.shape).encode("ascii"))
    hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()[:KEY_HEX_LENGTH]


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to the JSON-stable form that is hashed into keys."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value:  # NaN compares unequal to itself
            return {"__float__": "nan"}
        return value
    if isinstance(value, (np.bool_, np.integer)):
        return value.item()
    if isinstance(value, np.floating):
        return canonicalize(value.item())
    if isinstance(value, np.ndarray):
        return {"__array__": digest_array(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonicalize(dataclasses.asdict(value))
    if isinstance(value, dict):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise CacheKeyError(
                    f"cache key dicts need string keys, got {key!r}"
                )
            out[key] = canonicalize(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    raise CacheKeyError(
        f"cannot canonicalize {type(value).__name__!r} into a cache key; "
        "pass plain scalars, arrays, dataclasses or containers of them"
    )


def make_key(stage: str, parts: Any, version: int = 1) -> str:
    """The content-addressed key of one (stage, inputs) pair.

    ``version`` is the per-stage code-version salt: bump it at the call
    site whenever the stage's computation changes what it would produce
    for identical inputs.
    """
    if not stage or "/" in stage or stage.startswith("."):
        raise CacheKeyError(f"invalid stage name {stage!r}")
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "stage": stage,
        "stage_version": int(version),
        "parts": canonicalize(parts),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:KEY_HEX_LENGTH]
