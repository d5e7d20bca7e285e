"""Keyed streams: key words, and the keys that have none."""

import numpy as np
import pytest

from fptrace import rng as rngmod
from fptrace.errors import ConfigError


@pytest.mark.parametrize("key", [2.0, True, False, np.bool_(True), None, b"row", -1, (1,)])
def test_malformed_keys_are_config_errors(key):
    with pytest.raises(ConfigError):
        rngmod.derive(0, key)
    with pytest.raises(ConfigError):
        rngmod.key_words("row", key)


def test_valid_keys_keep_their_words_and_streams():
    assert rngmod.key_words(np.int64(7), 7, 2**32 + 7) == (7, 7, 7)
    assert rngmod.key_words("row") == rngmod.key_words("row")
    assert rngmod.key_words("row") != rngmod.key_words("rows")
    a = rngmod.derive(5, "row", np.int64(3)).integers(0, 2**62, size=4)
    b = rngmod.derive(5, "row", 3).integers(0, 2**62, size=4)
    assert np.array_equal(a, b)
