"""Deterministic seed derivation for independent substreams.

Every stochastic routine takes one integer seed; nested work derives child
seeds from a path of integers via SeedSequence, so parallel and serial
execution schedules produce identical results.

``derive_seed`` is the scalar reference: one numpy ``SeedSequence`` per
path.  ``derive_seeds`` is the same hash run on ``uint32`` columns, one
column per path, so a whole chunk or experiment run is seeded in a few
numpy passes; ``stream_words`` gives the four ``uint64`` words that
``default_rng(seed)`` hands ``PCG64``, and ``generator_from_words`` builds
that Generator from them without hashing again.  Both give the bytes of
the scalar path: every element of a path is one 32-bit word below 2**32
(0 included) and two from there on, as ``SeedSequence`` splits it, and
zero words at the end of a path of up to four words change nothing, so
``derive_seed(5, 7) == derive_seed(5, 7, 0)``.

``generator`` is the one place where a seed, an int in [-2**63, 2**64), becomes a Generator.
``numpy.random`` loads at first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidArgument

_MASK64 = (1 << 64) - 1

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words filled and mixed with the INIT_A/MULT_A hash chain, read out
# with the INIT_B/MULT_B chain.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**t mod 2**32`` for t < n; uint32 products wrap."""
    factors = np.array([init] + [mult] * (n - 1), np.uint32)
    return np.multiply.accumulate(factors, dtype=np.uint32)


def _mixing_step(src: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants with which pool word ``src`` mixes into the other three.

    They are hashmix calls 4 + 3 src onward, one per other word in order; the
    row of ``src`` itself is a placeholder whose result is discarded.
    """
    t = np.zeros(_POOL, np.intp)
    t[_OTHERS[src]] = _POOL + 3 * src + np.arange(_POOL - 1)
    xor, mult = _A[t], _A[t + 1]
    xor[src] = mult[src] = 0
    return xor[:, None], mult[:, None]


# hashmix call t xors its value with A[t] and multiplies it by A[t + 1]; the
# pool's fill is calls 0-3 and its mix calls 4-15.  generate_state's word i
# is pool word i % 4 xored with B[i] and multiplied by B[i + 1].
_A = _chain(_INIT_A, _MULT_A, 17)
_FILL = _A[:4, None], _A[1:5, None]
_MIXING = [_mixing_step(src) for src in range(_POOL)]
_B = _chain(_INIT_B, _MULT_B, 2 * 4 + 1)  # up to four uint64 words
_CYCLE = np.arange(2 * 4) % _POOL


def normalize_seed(seed: int) -> int:
    """Map a seed in [-2**63, 2**64) onto SeedSequence's domain, a negative one mod 2**64.

    Any other seed raises InvalidArgument: masked, it would draw as another seed."""
    seed = int(seed)
    if not -(1 << 63) <= seed < 1 << 64:
        raise InvalidArgument(f"seed must lie in [-2**63, 2**64), got {seed}")
    return seed & _MASK64


def derive_seed(*path: int) -> int:
    """Collapse a path of integers into one reproducible 64-bit seed."""
    ss = np.random.SeedSequence([normalize_seed(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    h = (value ^ xor) * mult
    return h ^ (h >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _as_uint64(element) -> np.ndarray:
    """A path element as ``uint64``, mapped onto 64 bits as ``normalize_seed`` does."""
    if isinstance(element, (int, np.integer)):
        return np.uint64(normalize_seed(element))
    return np.asarray(element).astype(np.uint64)  # a negative entry wraps mod 2**64


def _entropy(path) -> tuple[np.ndarray, object]:
    """The paths' entropy words, one column per path, and each column's word count.

    The count is an int while every column has as many words.
    """
    elements = [_as_uint64(p) for p in path]
    n = max((p.size for p in elements if p.ndim), default=1)
    words = np.zeros((max(2 * len(elements), _POOL), n), np.uint32)
    columns = np.arange(n)
    count = 0
    for p in elements:
        hi = p >> np.uint64(32)
        parts = (p, hi) if hi.any() else (p,)  # assignment keeps a part's low 32 bits
        for k, part in enumerate(parts):
            words[count + k if isinstance(count, int) else (count + k, columns)] = part
        if len(parts) == 2 and not (two := hi != 0).all():
            count = count + 1 + two  # a one-word column's next element overwrites its 0
        else:
            count = count + len(parts)
    width = count if isinstance(count, int) else int(count.max())
    return words[:max(width, _POOL)], count


def _pool(path) -> np.ndarray:
    """SeedSequence's mixed pool for each path, shape ``(4, n)``."""
    words, count = _entropy(path)
    pool = _hashmix(words[:_POOL], *_FILL)
    for src, consts in enumerate(_MIXING):
        mixed = _mix(pool, _hashmix(pool[src], *consts))
        mixed[src] = pool[src]
        pool = mixed
    width = words.shape[0]
    if width > _POOL:  # each word past the pool takes four more calls, into every pool word
        a = _chain(_INIT_A, _MULT_A, 17 + 4 * (width - _POOL))
        for j, t in enumerate(range(16, a.size - 1, 4), _POOL):
            mixed = _mix(pool, _hashmix(words[j], a[t:t + 4, None], a[t + 1:t + 5, None]))
            pool = mixed if isinstance(count, int) else np.where(j < count, mixed, pool)
    return pool


def _state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint64)`` for each pool column, shape ``(n, n_words)``."""
    k = 2 * n_words
    halves = np.ascontiguousarray(_hashmix(pool[_CYCLE[:k]].T, _B[:k], _B[1:k + 1]))
    # as SeedSequence does: word pairs read as little-endian uint64, then native
    return halves.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def derive_seeds(*path) -> np.ndarray:
    """``derive_seed`` over paths whose elements may be integer arrays.

    Each element is an int or a 1-D integer array, the arrays of one length
    ``n``; the result is a ``uint64`` array of ``n`` seeds (1 when every
    element is an int), entry ``i`` being ``derive_seed`` of the path with
    every array replaced by its entry ``i``.  A signed element maps onto 64
    bits as ``normalize_seed`` does.
    """
    return _state(_pool(path), 1)[:, 0]


def stream_words(seeds) -> np.ndarray:
    """The ``uint64`` words that ``default_rng(normalize_seed(s))`` hands ``PCG64``.

    One row of four words per seed, shape ``(n, 4)``; ``generator_from_words``
    turns a row into that Generator.
    """
    return _state(_pool([np.ravel(seeds)]), 4)


@functools.cache
def _words_seed() -> type:
    """The seed-sequence class ``generator_from_words`` uses, made at first use.

    Subclassing numpy's ``ISeedSequence`` imports ``numpy.random``, which
    ``import epibound`` does not load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        """Hands ``PCG64`` the four ``uint64`` words it asks a ``SeedSequence`` for."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return WordsSeed


def generator_from_words(words: np.ndarray) -> np.random.Generator:
    """The Generator of one row of ``stream_words``: the same state, the same draws."""
    return np.random.Generator(np.random.PCG64(_words_seed()(words)))


def generator(seed: int | np.random.Generator) -> np.random.Generator:
    """``default_rng`` over a seed in [-2**63, 2**64); a Generator passes through, as in numpy."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(normalize_seed(seed))
