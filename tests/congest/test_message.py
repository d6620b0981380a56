"""Unit tests for CONGEST message bit accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.congest import payload_bits, word_bits


class TestWordBits:
    def test_bool_is_one_bit(self):
        assert word_bits(True) == 1
        assert word_bits(False) == 1

    @pytest.mark.parametrize("value,bits", [
        (0, 2), (1, 2), (2, 3), (255, 9), (-255, 9), (2**20, 22),
    ])
    def test_int_bits(self, value, bits):
        assert word_bits(value) == bits

    def test_float_is_64_bits(self):
        assert word_bits(3.14) == 64

    def test_short_str_is_constant_tag(self):
        assert word_bits("reduce") == 4
        assert word_bits("") == 4

    def test_long_str_charged_per_char(self):
        assert word_bits("x" * 20) == 160

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            word_bits([1, 2])

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_int_bits_positive(self, value):
        assert word_bits(value) >= 2


class TestPayloadBits:
    def test_empty_payload(self):
        assert payload_bits(()) == 0

    def test_sum_of_words(self):
        payload = ("bid", 0.5, True)
        assert payload_bits(payload) == 4 + 64 + 1
