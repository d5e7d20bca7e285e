"""Keyed streams: key words, and the keys that have none."""

import numpy as np
import pytest

from fptrace import rng as rngmod
from fptrace.codec import CodeParams, build_codebook
from fptrace.errors import ConfigError


# a key of 2**32 or more once kept only its low 32 bits, aliasing a small key
@pytest.mark.parametrize(
    "key", [2.0, True, False, np.bool_(True), None, b"row", -1, (1,), 2**32, 2**32 + 7]
)
def test_malformed_keys_are_config_errors(key):
    with pytest.raises(ConfigError):
        rngmod.derive(0, key)
    with pytest.raises(ConfigError):
        rngmod.key_words("row", key)


def test_valid_keys_keep_their_words_and_streams():
    assert rngmod.key_words(np.int64(7), 7, 2**32 - 1) == (7, 7, 2**32 - 1)
    assert rngmod.key_words("row") == rngmod.key_words("row")
    assert rngmod.key_words("row") != rngmod.key_words("rows")
    a = rngmod.derive(5, "row", np.int64(3)).integers(0, 2**62, size=4)
    b = rngmod.derive(5, "row", 3).integers(0, 2**62, size=4)
    assert np.array_equal(a, b)


def test_a_user_past_2_32_has_no_row_aliasing_a_small_user():
    # a rate above 32 / n gives books this large
    params = CodeParams(n=34, num_users=2**33)
    cb = build_codebook(params, np.zeros(34, dtype=np.int64), np.zeros(34, dtype=np.int64), 3)
    assert cb.row(1).shape == (34,)
    with pytest.raises(ConfigError):
        cb.row(2**32 + 1)
