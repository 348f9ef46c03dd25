"""Seed derivation: numpy's SeedSequence hash, restated so that one pass
derives many seeds, and the one place where seeds become Generators.

`derive_seed(seed, *keys)` equals `SeedSequence([seed, *keys])
.generate_state(1)[0]`.  `derive_seeds` computes that word for a whole range
of last keys at once, on uint32 arrays, and for a whole array of seeds below
2^32 at once: a chunk of trials derives the seeds of all its (trial, block)
pairs in one pass.  `default_rngs` yields, for each seed of an array, one
reused Generator set to the state `np.random.default_rng` builds from it,
so a loop re-seeds one Generator instead of building a SeedSequence and a
PCG64 per draw.  It computes the PCG64 states in passes of STATE_PASS seeds,
as four uint64 words per seed (32 bytes), and builds each state dict only
when its Generator is yielded.  tests/test_seeding.py checks them against
numpy's own SeedSequence and `default_rng`, word for word.
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
_PCG64_MULT_HI, _PCG64_MULT_LO = 2549297995355413924, 4865540595714422341
STATE_PASS = 2048  # seeds whose PCG64 states `default_rngs` holds at once: 64 KB


def _mul32(a, b):
    return (a * b) & _MASK32


def _seed_words(*values: int) -> list[int]:
    """The values as little-endian 32-bit words, each at least one word, the
    way SeedSequence reads a list of ints."""
    words = []
    for value in values:
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"seeds and keys must be integers, got {value!r}")
        value = int(value)
        if value < 0:
            raise ValueError(f"seeds and keys must be non-negative, got {value}")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words


def _hash_state(entropy: list, n_words: int) -> Iterator:
    """Yields `SeedSequence(entropy).generate_state(n_words)` word by word,
    where an entropy word is a Python int or a uint32 array (one hash per
    entry); array words broadcast against each other."""
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
    h = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ h
        h = _mul32(h, _MULT_B)
        value = _mul32(value, h)
        yield value ^ (value >> 16)


def _seed_array(seeds) -> np.ndarray:
    """seeds as a uint32 array, each checked to be an integer in [0, 2^32),
    one SeedSequence word: a wider or negative value would wrap to another
    seed's stream and a float would truncate."""
    arr = np.asarray(seeds)
    if arr.dtype.kind in "iu":
        bad = arr[(arr < 0) | (arr > _MASK32)].tolist()
    elif arr.dtype.kind == "O":  # Python ints too wide for int64
        bad = [v for v in arr.ravel().tolist()
               if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= _MASK32]
    else:
        bad = arr.ravel().tolist()
    if bad:
        raise ValueError(f"seeds must be integers in [0, 2^32), got {bad[0]!r}")
    return arr.astype(np.uint32)


def derive_seeds(seed, *keys: int, count: int, start: int = 0) -> np.ndarray:
    """`derive_seed(seed, *keys, start + i)` for every i < count, as a uint32
    array computed in one pass of the hash.  The last key must stay below
    2^32, one SeedSequence word.  The seed may also be an array of seeds
    below 2^32; the result then has the seeds' shape plus a last axis of
    count, entry [j, i] derived from seed j, still in one pass."""
    if start < 0 or count < 0:
        raise ValueError(f"start and count must be non-negative, got {start} and {count}")
    if start + count > _MASK32 + 1:
        raise ValueError("the derived keys must stay below 2^32")
    last = np.arange(start, start + count, dtype=np.uint64).astype(np.uint32)
    if isinstance(seed, np.ndarray):
        head = [_seed_array(seed)[..., None], *_seed_words(*keys)]
    else:
        head = _seed_words(seed, *keys)
    return next(_hash_state([*head, last], 1))


def derive_seed(seed: int, *keys: int) -> int:
    """Deterministic child seed for (seed, keys), equal to
    `SeedSequence([seed, *keys]).generate_state(1)[0]`; `derive_seeds` gives
    a range of them at once."""
    return next(_hash_state(_seed_words(seed, *keys), 1))


def _mul_wide(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit halves of a m, for a uint64 array a and a
    64-bit constant m, from 32-bit partial products that cannot overflow."""
    a0, a1 = a & _MASK32, a >> 32
    m0, m1 = m & _MASK32, m >> 32
    cross0, cross1 = a0 * m1, a1 * m0
    carry = ((a0 * m0) >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * m1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32), a * m


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """The state of `np.random.default_rng(s)` for every seed s of a 1-D
    uint32 array, one row of uint64 words (state high, state low, increment
    high, increment low) per seed.  The hash of [s] gives PCG64's 128-bit
    seed and initial sequence, and `srandom` sets inc = 2 initseq + 1 and
    state = (seed + inc) MULT + inc mod 2^128, which is computed here on
    64-bit halves."""
    w = [x.astype(np.uint64) for x in _hash_state([seeds], 8)]
    # Each 64-bit half is two hash words, low first.
    seed_hi, seed_lo, initseq_hi, initseq_lo = (w[i] | w[i + 1] << 32 for i in (0, 2, 4, 6))
    inc_hi = initseq_hi << 1 | initseq_lo >> 63
    inc_lo = initseq_lo << 1 | 1
    sum_lo = seed_lo + inc_lo
    sum_hi = seed_hi + inc_hi + (sum_lo < inc_lo)
    prod_hi, prod_lo = _mul_wide(sum_lo, _PCG64_MULT_LO)
    prod_hi += sum_lo * _PCG64_MULT_HI + sum_hi * _PCG64_MULT_LO
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=-1)


def default_rngs(seeds) -> Iterator[np.random.Generator]:
    """For each seed s of a 1-D array of integers in [0, 2^32), in order,
    one Generator set to the state `np.random.default_rng(s)` builds.  It is
    the same Generator every time, re-seeded: draw from it before asking for
    the next.  Any other seeds raise `ValueError` on the first request."""
    seeds = _seed_array(seeds)
    if seeds.ndim != 1:
        raise ValueError(f"expected a 1-D array of seeds, got shape {seeds.shape}")
    rng = np.random.Generator(np.random.PCG64(0))
    for first in range(0, len(seeds), STATE_PASS):
        for row in _pcg64_words(seeds[first:first + STATE_PASS]):
            state_hi, state_lo, inc_hi, inc_lo = row.tolist()
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0, "uinteger": 0}
            yield rng
