"""The package's public names."""

import citeineq


def test_every_export_resolves_once():
    assert len(set(citeineq.__all__)) == len(citeineq.__all__)
    missing = [name for name in citeineq.__all__ if not hasattr(citeineq, name)]
    assert missing == []
