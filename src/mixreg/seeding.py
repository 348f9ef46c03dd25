"""Seed derivation: numpy's SeedSequence hash, restated so that one pass
derives many seeds.

`derive_seed(seed, *keys)` equals `SeedSequence([seed, *keys])
.generate_state(1)[0]`.  `derive_seeds` computes that word for a whole range
of last keys at once, on uint32 arrays, and `pcg64_states` gives the state
that `np.random.default_rng` builds from each derived seed, so a loop can
re-seed one Generator instead of building a SeedSequence and a PCG64 per
draw.  tests/test_seeding.py checks all three against numpy's own
SeedSequence and `default_rng`, word for word.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 seeding
# step.  A hash word is a Python int below 2^32 or a uint32 array with one
# entry per derived seed: Python-int products are masked to 32 bits, and uint32
# array products wrap on their own, without a warning.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _mul32(a, b):
    return (a * b) & _MASK32


def _seed_words(*values: int) -> list[int]:
    """The values as little-endian 32-bit words, each at least one word, the
    way SeedSequence reads a list of ints."""
    words = []
    for value in values:
        value = int(value)
        if value < 0:
            raise ValueError(f"seeds and keys must be non-negative, got {value}")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words


def _hash_state(entropy: list, n_words: int) -> list:
    """`SeedSequence(entropy).generate_state(n_words)` word by word, where an
    entropy word is a Python int or a uint32 array (one hash per entry)."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = _mul32(h, _MULT_A)
        value = _mul32(value, h)
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_mul32(x, _MIX_L) - _mul32(y, _MIX_R)) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, out = _INIT_B, []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ h
        h = _mul32(h, _MULT_B)
        value = _mul32(value, h)
        out.append(value ^ (value >> 16))
    return out


def derive_seeds(seed: int, *keys: int, count: int, start: int = 0) -> np.ndarray:
    """`derive_seed(seed, *keys, start + i)` for every i < count, as a uint32
    array computed in one pass of the hash.  The last key must stay below
    2^32, one SeedSequence word."""
    if start < 0 or count < 0:
        raise ValueError(f"start and count must be non-negative, got {start} and {count}")
    if start + count > _MASK32 + 1:
        raise ValueError("the derived keys must stay below 2^32")
    last = np.arange(start, start + count, dtype=np.uint64).astype(np.uint32)
    return _hash_state([*_seed_words(seed, *keys), last], 1)[0]


def derive_seed(seed: int, *keys: int) -> int:
    """Deterministic child seed for (seed, keys), equal to
    `SeedSequence([seed, *keys]).generate_state(1)[0]`; `derive_seeds` gives
    a range of them at once."""
    return _hash_state(_seed_words(seed, *keys), 1)[0]


def pcg64_states(seeds) -> Iterator[dict]:
    """Yields, for each seed s below 2^32, the bit-generator state of
    `np.random.default_rng(s)`: the hash of [s] gives PCG64's 128-bit seed
    and increment, and `srandom` steps the generator twice from them.  The
    states are made one at a time, as a loop sets them."""
    words = [w.astype(np.uint64) for w in _hash_state([np.asarray(seeds, dtype=np.uint32)], 8)]
    halves = [(words[i] | words[i + 1] << 32).tolist() for i in range(0, 8, 2)]
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*halves):
        inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}
