"""Unit tests for repro.utils."""

import hashlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    geometric_layers,
    ilog2,
    is_prime,
    log_star,
    next_prime,
    stable_rng,
)


class TestStableRng:
    def test_same_inputs_same_stream(self):
        a = stable_rng(1, "x", 2)
        b = stable_rng(1, "x", 2)
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]

    def test_different_parts_different_stream(self):
        a = stable_rng(1, "x")
        b = stable_rng(1, "y")
        assert [a.random() for _ in range(5)] != [
            b.random() for _ in range(5)
        ]

    def test_different_seed_different_stream(self):
        assert stable_rng(1).random() != stable_rng(2).random()

    def test_node_tuple_parts(self):
        a = stable_rng(0, (1, 2), 3)
        b = stable_rng(0, (1, 2), 3)
        assert a.random() == b.random()

    @pytest.mark.parametrize("seed,parts", [
        (0, ()), (1, ("x", 2)), (9, ((1, 2), 3)), (2 ** 40, ("node", 0)),
    ])
    def test_state_matches_plain_random(self, seed, parts):
        # stable_rng seeds through the C base class; the state must be
        # exactly random.Random(int_seed)'s, gauss cache included.
        key = "|".join([str(seed)] + [repr(p) for p in parts])
        int_seed = int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")
        fast, reference = stable_rng(seed, *parts), random.Random(int_seed)
        assert fast.getstate() == reference.getstate()
        assert ([fast.gauss(0, 1) for _ in range(3)]
                == [reference.gauss(0, 1) for _ in range(3)])
        assert fast.getstate() == reference.getstate()


class TestIlog2:
    @pytest.mark.parametrize("x,expected", [
        (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1024, 10),
    ])
    def test_values(self, x, expected):
        assert ilog2(x) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ilog2(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_matches_ceiling_log(self, x):
        assert ilog2(x) == math.ceil(math.log2(x)) or x == 1


class TestLogStar:
    @pytest.mark.parametrize("x,expected", [
        (1, 0), (2, 1), (4, 2), (16, 3), (65536, 4),
    ])
    def test_tower_values(self, x, expected):
        assert log_star(x) == expected

    def test_monotone(self):
        values = [log_star(x) for x in (2, 4, 16, 256, 65536, 2.0**64)]
        assert values == sorted(values)


class TestPrimes:
    def test_is_prime_small(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                          43, 47, 53, 59]

    @given(st.integers(min_value=0, max_value=5000))
    def test_next_prime_is_prime_and_minimal(self, n):
        p = next_prime(n)
        assert is_prime(p)
        assert p >= max(2, n)
        for q in range(max(2, n), p):
            assert not is_prime(q)


class TestGeometricLayers:
    @pytest.mark.parametrize("w,layer", [
        (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4),
    ])
    def test_layer_boundaries(self, w, layer):
        assert geometric_layers(w) == layer

    @given(st.integers(min_value=1, max_value=10**6))
    def test_layer_interval(self, w):
        """Layer i holds weights with 2^{i-1} < w <= 2^i (paper §2.2)."""

        i = geometric_layers(w)
        assert w <= 2 ** i
        if i > 0:
            assert w > 2 ** (i - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_layers(0)
