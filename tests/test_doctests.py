"""The examples in module docstrings run as tests."""

import doctest

import specvar.words


def test_words_doctests():
    result = doctest.testmod(specvar.words)
    assert result.attempted > 0
    assert result.failed == 0
