"""The batch seed kernel against numpy's SeedSequence, path by path.

``derive_seed`` and ``default_rng`` are the reference; ``derive_seeds`` and
``stream_words`` must give their bytes for every path, including paths
whose elements take two 32-bit words and paths longer than the four-word
pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epibound import (
    Gaussian,
    InvalidArgument,
    InverseGammaGaussianTasks,
)
from epibound.divergences import kl_mc
from epibound.experiments import _sampled_barycenter
from epibound.oracle import generate_instance, generate_theta_instance, run_suite
from epibound.seeding import (
    derive_seed,
    derive_seeds,
    generator,
    generator_from_words,
    normalize_seed,
    stream_words,
)

EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**63))
element = st.one_of(st.sampled_from(EDGES), st.integers(-(2**63), 2**64 - 1))


def _column(values: list) -> np.ndarray:
    """Signed entries as int64 when they fit, so the kernel maps negatives itself."""
    if all(-(2**63) <= v < 2**63 for v in values):
        return np.array(values, np.int64)
    return np.array([normalize_seed(v) for v in values], np.uint64)


@st.composite
def batches(draw):
    """Paths of 1 to 6 elements; each element is one int shared by the batch or a column."""
    length = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    shared = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    path, rows = [], [[] for _ in range(n)]
    for is_shared in shared:
        if is_shared:
            v = draw(element)
            path.append(v)
            values = [v] * n
        else:
            values = draw(st.lists(element, min_size=n, max_size=n))
            path.append(_column(values))
        for row, v in zip(rows, values):
            row.append(v)
    return path, rows if not all(shared) else rows[:1]  # ints alone make one path


@settings(deadline=None, max_examples=300)
@given(batches())
def test_batch_matches_scalar(batch):
    path, rows = batch
    assert derive_seeds(*path).tolist() == [derive_seed(*row) for row in rows]


def test_mixed_word_counts_in_one_batch():
    # columns of one, two, five and seven words side by side: all past the
    # pool but the first two, so the masked extra mixing is exercised
    a = np.array([0, 2**32, 2**64 - 1, 5, 2**40], np.uint64)
    b = np.array([1, 2, 2**33, 2**32 - 1, 2**63], np.uint64)
    got = derive_seeds(a, 7, b, a)
    assert got.tolist() == [derive_seed(x, 7, y, x) for x, y in zip(a.tolist(), b.tolist())]


def test_batch_of_one_and_empty_batch():
    assert derive_seeds(3, np.array([9])).tolist() == [derive_seed(3, 9)]
    assert derive_seeds(3, 9).tolist() == [derive_seed(3, 9)]
    assert derive_seeds(3, np.array([], np.int64)).shape == (0,)
    assert stream_words(np.array([], np.uint64)).shape == (0, 4)


def test_trailing_zero_words_free_up_to_the_pool():
    assert derive_seed(5, 7) == derive_seed(5, 7, 0) == derive_seed(5, 7, 0, 0)
    assert derive_seeds(5, 7, 0).tolist() == [derive_seed(5, 7)]
    # four words of 2**40 and 2**41 fill the pool: a fifth, zero, word is mixed in
    assert derive_seed(2**40, 2**41, 0) != derive_seed(2**40, 2**41)
    assert derive_seeds(2**40, 2**41, 0).tolist() == [derive_seed(2**40, 2**41, 0)]


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, 2**64 - 1, -1])
def test_trailing_zero_free_while_the_index_is_one_word(seed):
    # the suite hashes instance i's path (seed, i) as (seed, i, 0), next to the
    # theta paths (seed, i, 777), in one pass; it stops at 2**32 instances
    index = np.array([0, 1, 2**31, 2**32 - 2, 2**32 - 1], np.uint64)
    tags = np.repeat([0, 777], index.size)
    both = derive_seeds(seed, np.concatenate([index, index]), tags)
    assert both.tolist() == derive_seeds(seed, index).tolist() + derive_seeds(
        seed, index, 777).tolist()
    assert both[:index.size].tolist() == [derive_seed(seed, i) for i in index.tolist()]
    # a two-word index with a two-word seed fills the pool: the zero is mixed in
    two_words = normalize_seed(seed) >= 2**32
    assert (derive_seeds(seed, 2**32, 0) != derive_seeds(seed, 2**32))[0] == two_words


@settings(deadline=None, max_examples=150)
@given(st.lists(element, min_size=1, max_size=8))
def test_generators_match_default_rng(seeds):
    words = stream_words(np.array([normalize_seed(s) for s in seeds], np.uint64))
    for s, row in zip(seeds, words):
        want, got = np.random.default_rng(normalize_seed(s)), generator_from_words(row)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(3).tolist() == want.random(3).tolist()
        assert got.integers(2**62, size=2).tolist() == want.integers(2**62, size=2).tolist()


def test_generator_helper():
    rng = np.random.default_rng(4)
    assert generator(rng) is rng
    assert generator(-1).bit_generator.state == generator(2**64 - 1).bit_generator.state
    assert generator(5).bit_generator.state == np.random.default_rng(5).bit_generator.state


class TestSeedRange:
    """A seed is an integer in [-2**63, 2**64); any other raises InvalidArgument."""

    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**64, 2**64 + 5],
                             ids=["below", "above", "above-plus-5"])
    def test_out_of_range_seed_rejected(self, seed):
        # masked to 64 bits, 2**64 + 5 drew as 5 and wrote its own seed into the report
        p, q = Gaussian(0.0, 1.0), Gaussian(0.0, 2.0)
        calls = [normalize_seed, derive_seed, generator, lambda s: derive_seed(5, s),
                 lambda s: derive_seeds(s, np.arange(3)), lambda s: kl_mc(p, q, seed=s),
                 generate_instance, generate_theta_instance, lambda s: run_suite(4, seed=s)]
        for call in calls:
            with pytest.raises(InvalidArgument,
                               match=rf"^seed must lie in \[-2\*\*63, 2\*\*64\), got {seed}$"):
                call(seed)

    def test_range_ends_accepted(self):
        assert normalize_seed(-(2**63)) == 2**63
        assert normalize_seed(2**64 - 1) == 2**64 - 1
        assert derive_seed(-(2**63)) == derive_seed(2**63)
        assert derive_seeds(-(2**63), np.arange(2)).tolist() == [derive_seed(2**63, i)
                                                                 for i in range(2)]


class TestNegativeSeeds:
    """Every seeded routine maps any 64-bit seed onto SeedSequence's domain."""

    def test_kl_mc(self):
        p, q = Gaussian(0.0, 1.0), Gaussian(0.0, 2.0)
        assert kl_mc(p, q, seed=-1) == kl_mc(p, q, seed=2**64 - 1)

    def test_barycenter(self):
        # the negative-transfer experiment's sampled barycenters
        tasks = InverseGammaGaussianTasks(1.0, 20.0, 10.0)
        a, b = _sampled_barycenter(tasks, -1), _sampled_barycenter(tasks, 2**64 - 1)
        np.testing.assert_array_equal(a.stddevs, b.stddevs)

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1])
    def test_kl_mc_takes_a_generator(self, seed):
        p, q = Gaussian(0.0, 1.0), Gaussian(0.0, 2.0)
        assert kl_mc(p, q, seed=generator(seed)) == kl_mc(p, q, seed=seed)
