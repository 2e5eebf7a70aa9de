"""Tests for wire payload accounting."""

from repro.runtime import dv_payload_words


def test_payload_words_formula():
    assert dv_payload_words(3, 100) == 3 * 101
    assert dv_payload_words(0, 100) == 0
