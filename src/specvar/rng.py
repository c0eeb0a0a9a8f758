"""Counter-based random streams.

Every Monte Carlo routine derives its randomness from a Philox stream keyed
by ``(seed, *key)``, where the key components identify the unit of work
(sample index, generator index, draw index, class id, ...).  Streams for
distinct keys are independent and a given key always yields the same
stream, so results are bit-identical no matter how the work is split
across threads or runs.

``streams(seed, keys)`` hashes the Philox keys of a whole batch in one
vectorised pass.  The hash is numpy's ``SeedSequence`` entropy mixing,
ported word for word, so each stream has the same bits as
``Philox(SeedSequence([seed, *key]))``.  ``stream(seed, *key)`` is the
batch of one.  ``numpy.random`` is imported on the first draw, not with
the package.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(seed: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's entropy words of (seed, *key) for every row of keys.

    A component is one 32-bit word below 2**32 (zero included) and two
    words, low first, above.  Rows are zero-padded to a common width of at
    least the pool size; the second array is each row's word count.
    """
    n, m = keys.shape
    comps = np.empty((n, m + 1), dtype=np.uint64)
    comps[:, 0] = int(seed) & _MASK64
    comps[:, 1:] = keys.astype(np.uint64)  # negatives wrap modulo 2**64
    lo = (comps & _MASK32).astype(np.uint32)
    hi = (comps >> 32).astype(np.uint32)
    wide = hi > 0
    width = 1 + wide
    pos = np.cumsum(width, axis=1) - width
    count = width.sum(axis=1)
    words = np.zeros((n, max(_POOL, int(count.max(initial=0)))), dtype=np.uint32)
    rows = np.broadcast_to(np.arange(n)[:, None], pos.shape)
    words[rows, pos] = lo
    words[rows[wide], pos[wide] + 1] = hi[wide]
    return words, count


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k modulo 2**32 for k < count: a hash constant's steps."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _philox_keys(seed: int, keys: np.ndarray) -> np.ndarray:
    """Philox keys of (seed, *key) for every row of keys, shape (n, 2) uint64.

    SeedSequence hashes a word by xor with its running constant, a step of
    the constant and a multiply.  The constant steps the same way for every
    row, so one vector operation hashes a word of each row, and the words
    that one pool word hashes into the others are hashed together.  A row
    with fewer entropy words than the widest keeps its pool while the
    others mix more words in.
    """
    words, count = _entropy_words(seed, keys)
    const = _hash_constants(_INIT_A, _MULT_A, _POOL * words.shape[1] + 1)
    step = 0

    def hashmix(value: np.ndarray, width: int) -> np.ndarray:
        nonlocal step
        value = (value ^ const[step : step + width]) * const[step + 1 : step + width + 1]
        step += width
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = _MIX_L * x - _MIX_R * y
        return value ^ value >> 16

    pool = hashmix(words[:, :_POOL], _POOL)
    for src in range(_POOL):
        dst = np.arange(_POOL) != src
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src : src + 1], _POOL - 1))
    for src in range(_POOL, words.shape[1]):
        pool = np.where((count > src)[:, None], mix(pool, hashmix(words[:, src : src + 1], _POOL)), pool)

    # generate_state(2, uint64): four output words, paired little-endian
    out = _hash_constants(_INIT_B, _MULT_B, _POOL + 1)
    state = (pool ^ out[:-1]) * out[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _fixed_key():
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        """Hands a precomputed key to ``Philox``, which asks for 2 uint64 words."""

        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return FixedKey


def streams(seed: int, keys) -> Iterator[np.random.Generator]:
    """Generators of (seed, *key) for the rows of ``keys``, in row order.

    ``keys`` is an integer array of shape (n, m); components and seed are
    read modulo 2**64.  All n keys are hashed up front, but each generator
    is built only when it is read, so a caller that uses one at a time
    holds one at a time.
    """
    fixed = _fixed_key()
    for key in _philox_keys(seed, np.asarray(keys)):
        yield np.random.Generator(np.random.Philox(fixed(key)))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one unit of work: ``streams`` with one key."""
    return next(streams(seed, np.array([[int(k) & _MASK64 for k in key]], dtype=np.uint64)))
