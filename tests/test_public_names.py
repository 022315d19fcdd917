"""The package's public names."""

from collections import Counter

import rsplfr


def test_every_public_name_resolves_once():
    assert [n for n, c in Counter(rsplfr.__all__).items() if c > 1] == []
    missing = [name for name in rsplfr.__all__ if not hasattr(rsplfr, name)]
    assert missing == []


def test_the_group_decoder_and_its_one_sided_cases_are_public():
    from rsplfr import protocol
    for name in ("decode_group", "decode_streams", "recover_library"):
        assert name in rsplfr.__all__
        assert getattr(rsplfr, name) is getattr(protocol, name)
