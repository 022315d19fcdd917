"""The package's public names."""

from collections import Counter

import rsplfr


def test_every_public_name_resolves_once():
    assert [n for n, c in Counter(rsplfr.__all__).items() if c > 1] == []
    missing = [name for name in rsplfr.__all__ if not hasattr(rsplfr, name)]
    assert missing == []
