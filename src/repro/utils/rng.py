"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  Funnelling all of them
through :func:`as_generator` keeps experiments reproducible bit-for-bit while
still allowing quick interactive use.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so that generator state is
        shared with the caller).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_children(seed: SeedLike, count: int) -> list:
    """Derive ``count`` independent child generators from one seed-like input.

    Useful when one experiment drives several stochastic subsystems (Monte
    Carlo engine, foundry, instruments) that must not share generator state,
    yet the whole experiment must be reproducible from a single seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's own bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def spawn_seed_sequences(seed: SeedLike, count: int) -> list:
    """Derive ``count`` independent :class:`~numpy.random.SeedSequence` children.

    Unlike :func:`spawn_children` this returns *seeds*, not generators, so
    each device of a population can own a stream that is turned into a
    generator only when that device is drawn.  All entropy is drawn up front,
    which makes a device's stream independent of processing order.

    Like ``SeedSequence.spawn``, the children are prefix-stable: the first
    ``k`` of ``spawn_seed_sequences(seed, n)`` equal
    ``spawn_seed_sequences(seed, k)`` for ``k <= n``.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        drawn = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.SeedSequence(int(s)) for s in drawn]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return sequence.spawn(count)


@functools.lru_cache(maxsize=None)
def structure_entropy(name: str) -> tuple:
    """Entropy words encoding a structure name for ``SeedSequence`` mixing.

    Equivalent to the UTF-8 byte values of ``name`` (what
    ``np.frombuffer(name.encode(), dtype=np.uint8).tolist()`` produces), but
    computed once per distinct name: the same handful of monitor / RF
    structure names recurs for every device of every population.
    """
    return tuple(name.encode("utf-8"))
