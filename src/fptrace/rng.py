"""Keyed deterministic random streams.

Every randomized object in the package draws from a generator derived from a
master 64-bit seed plus a tuple of purpose keys, e.g. ``derive(seed, "trial",
17)`` or ``derive(seed, "row", m)``.  Derivation is stateless: the stream for
a given key tuple never depends on how many other streams were created or in
which order, so results are reproducible bit-for-bit under any worker count.

Strings are hashed to 32-bit words with BLAKE2 so the mapping is stable
across platforms and interpreter runs (unlike the builtin ``hash``).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import ConfigError, int_at_least

__all__ = ["derive", "key_words"]


def _word(key: str | int) -> int:
    if isinstance(key, str):
        return _str_word(key)
    # a key of 2**32 or more would alias the key it equals mod 2**32
    if not int_at_least(key, 0) or key > 0xFFFFFFFF:
        raise ConfigError(f"rng keys must be strings or integers in [0, 2**32), not {key!r}")
    return int(key)


@functools.lru_cache(maxsize=256)
def _str_word(key: str) -> int:
    """BLAKE2 word of a purpose string, hashed once per process."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def key_words(*keys: str | int) -> tuple[int, ...]:
    """Map a key tuple to the 32-bit words used as a spawn key."""
    return tuple(_word(k) for k in keys)


def derive(master_seed: int, *keys: str | int) -> np.random.Generator:
    """Return an independent Generator for (master_seed, *keys).

    Same inputs always give the same stream; distinct key tuples give
    streams that are independent for all practical purposes.  The master
    seed must be an integer >= 0: a fraction or a bool would alias a seed.
    """
    if not int_at_least(master_seed, 0):
        raise ConfigError(f"the master seed must be an integer >= 0, not {master_seed!r}")
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key_words(*keys))
    return np.random.Generator(np.random.PCG64(ss))
