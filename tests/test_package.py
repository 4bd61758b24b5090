"""The package's public names: everything partid.__all__ lists is there,
once."""

import collections

import partid


def test_every_exported_name_resolves_and_is_listed_once():
    counts = collections.Counter(partid.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in partid.__all__ if not hasattr(partid, name)] \
        == []
