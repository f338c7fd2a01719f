"""``repro._pcg64`` against its oracle: the installed numpy.

The core generator promises the *same stream* as
``numpy.random.default_rng(seed)`` for ``integers``/``random``/``uniform``,
so every comparison here is exact (``==`` on ints and floats).  The
golden vectors pin the stream independently of numpy: if they pass while
the differential fails, numpy changed *its* stream; if both fail, the bug
is ours.
"""

from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest

from repro._pcg64 import Generator, default_rng, make_rng

#: seed -> first 8 ``integers(0, 8)``, one ``random()``, one
#: ``uniform(50, 8000)`` (recorded from numpy 2.4.6).
GOLDEN = [
    (0x0, [6, 5, 4, 2, 2, 0, 0, 0], 0.8132702392002724, 7306.406839357887),
    (0x1, [3, 4, 6, 7, 0, 1, 6, 7], 0.31183145201048545, 3415.4452693319763),
    (0x3, [6, 0, 1, 1, 1, 6, 6, 4], 0.09412864224039919, 3493.3591748799668),
    (0x2A, [0, 6, 5, 3, 3, 6, 0, 5], 0.09417734788764953, 7806.19769551221),
    (0x3039, [5, 1, 6, 2, 1, 6, 5, 5], 0.391109550601909, 2695.870726537757),
    (0x80000000, [1, 7, 1, 0, 5, 7, 2, 0], 0.41438107955777415, 6626.435145194695),
    (0xFFFFFFFF, [1, 2, 5, 1, 7, 2, 1, 4], 0.9350122911173898, 2402.9351038270406),
    (0x100000000, [4, 7, 7, 4, 2, 6, 1, 7], 0.05861516014935442, 1929.3855276316679),
    (2**64 - 1, [4, 5, 7, 6, 2, 0, 0, 7], 0.12896523452474162, 2584.766156624935),
    (2**64 + 7, [5, 6, 6, 3, 6, 5, 6, 7], 0.7842137337019864, 2319.6087832328967),
    (2**130 - 1, [1, 1, 1, 6, 2, 6, 2, 2], 0.7873824698352466, 2674.677692394603),
]

#: ``hi - lo`` values that matter to numpy's bounded-integer rules: tiny
#: ranges, ranges whose Lemire threshold is large (2**31 + 1 rejects
#: about half the draws), the direct 32-bit path (2**32), and the 64-bit
#: rules above it (Lemire, then the direct path at 2**64).
WIDTHS = [
    1, 2, 3, 5, 8, 1000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40,
    2**63 + 1, 2**64 - 1, 2**64,
]  # fmt: skip


def _seed(r: random.Random, kind: int) -> int:
    return (0, 1, r.randrange(2**32), r.randrange(2**64), r.randrange(2**130))[kind]


def _same_draw(r: random.Random, ours: Generator, theirs: np.random.Generator):
    """Make one randomly chosen call on both; return the two results."""
    op = r.randrange(5)
    if op == 0:
        return ours.random(), theirs.random()
    if op == 1:
        lo = r.uniform(-1e3, 1e3)
        hi = lo + r.choice([0.0, 1.0, 7950.0, r.uniform(0, 1e9)])
        return ours.uniform(lo, hi), float(theirs.uniform(lo, hi))
    if op == 2:
        n = r.randrange(1, 64)
        return ours.integers(n), int(theirs.integers(n))
    width = r.choice(WIDTHS)
    lo = r.randrange(-8, 8) if op == 3 else r.randrange(-(2**63), 2**63)
    lo = min(lo, 2**63 - width)
    return ours.integers(lo, lo + width), int(theirs.integers(lo, lo + width))


class TestAgainstNumpy:
    def test_interleaved_draws_match_exactly(self):
        r = random.Random(20240917)
        for trial in range(2500):
            seed = _seed(r, trial % 5)
            ours, theirs = default_rng(seed), np.random.default_rng(seed)
            for call in range(60):
                a, b = _same_draw(r, ours, theirs)
                assert a == b and type(a) is type(b), (seed, call, a, b)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_bounded_integer_rule(self, width):
        # Long same-width runs: rejection loops fire many times for the
        # widths just above a power of two.
        ours, theirs = default_rng(width), np.random.default_rng(width)
        for lo in (-(2**63), min(-3, 2**63 - width), 2**63 - width):
            for _ in range(300):
                assert ours.integers(lo, lo + width) == theirs.integers(lo, lo + width)

    def test_32_bit_cache_survives_64_bit_draws(self):
        # integers() takes the low half and caches the high half; the
        # random() in between must not disturb or consume the cache.
        ours, theirs = default_rng(9), np.random.default_rng(9)
        for _ in range(200):
            assert ours.integers(0, 7) == theirs.integers(0, 7)
            assert ours.random() == theirs.random()
            assert ours.uniform(50, 8000) == theirs.uniform(50, 8000)
            assert ours.integers(0, 2**40) == theirs.integers(0, 2**40)
            assert ours.integers(0, 7) == theirs.integers(0, 7)

    def test_one_value_range_consumes_nothing(self):
        ours, untouched = default_rng(4), default_rng(4)
        assert [ours.integers(k, k + 1) for k in (-5, 0, 7, 2**62)] == [-5, 0, 7, 2**62]
        assert ours.integers(1) == 0
        assert ours.random() == untouched.random()

    def test_half_open_unit_interval(self):
        g = default_rng(6)
        assert all(0.0 <= g.random() < 1.0 for _ in range(1000))

    def test_numpy_integer_seed(self):
        assert default_rng(np.int64(11)).random() == np.random.default_rng(11).random()


class TestGolden:
    @pytest.mark.parametrize("seed, ints, unit, scaled", GOLDEN)
    def test_vector(self, seed, ints, unit, scaled):
        g = default_rng(seed)
        assert [g.integers(0, 8) for _ in range(8)] == ints
        assert g.random() == unit
        assert g.uniform(50, 8000) == scaled


class TestRejectsLikeNumpy:
    @pytest.mark.parametrize("lo, hi", [(3, 3), (4, 3), (0, 0), (0, -1)])
    def test_empty_range(self, lo, hi):
        for g in (default_rng(1), np.random.default_rng(1)):
            with pytest.raises(ValueError):
                g.integers(lo, hi)

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_one_argument_range(self, n):
        for g in (default_rng(1), np.random.default_rng(1)):
            with pytest.raises(ValueError):
                g.integers(n)

    @pytest.mark.parametrize("lo, hi", [(0, 2**63 + 1), (-(2**63) - 1, 0)])
    def test_bounds_outside_int64(self, lo, hi):
        for g in (default_rng(1), np.random.default_rng(1)):
            with pytest.raises(ValueError):
                g.integers(lo, hi)

    def test_negative_seed(self):
        for factory in (default_rng, np.random.default_rng):
            with pytest.raises(ValueError, match="non-negative"):
                factory(-1)

    @pytest.mark.parametrize("seed", [1.5, "7", [1, 2]])
    def test_non_integer_seed(self, seed):
        with pytest.raises(TypeError, match="non-negative int or None"):
            default_rng(seed)

    def test_reversed_or_unbounded_uniform(self):
        with pytest.raises(ValueError):
            default_rng(1).uniform(3.0, 1.0)
        with pytest.raises(ValueError):
            default_rng(1).uniform(0.0, float("inf"))

    def test_unsupported_distribution_says_what_to_do(self):
        with pytest.raises(AttributeError) as err:
            default_rng(1).exponential(2.0)
        assert "exponential()" in str(err.value)
        assert "build a numpy Generator and pass it as `seed=`" in str(err.value)


class TestMakeRng:
    def test_passes_generators_through(self):
        ours, theirs = default_rng(2), np.random.default_rng(2)
        assert make_rng(ours) is ours
        assert make_rng(theirs) is theirs

    def test_seeds_become_the_core_generator(self):
        g = make_rng(5)
        assert type(g) is Generator
        assert g.random() == np.random.default_rng(5).random()

    def test_none_draws_os_entropy(self):
        a, b = default_rng(None), default_rng(None)  # unseeded-ok
        assert a.random() != b.random()


class TestStateTravels:
    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, copy.copy, lambda g: pickle.loads(pickle.dumps(g))]
    )
    def test_round_trip_continues_the_stream(self, clone):
        def draws(g):
            return [g.integers(0, 5), g.random(), g.integers(0, 2**33), g.integers(3)]

        g = default_rng(8)
        g.integers(0, 5)  # leaves a cached high half to carry over
        twin = clone(g)
        assert draws(twin) == draws(g)
