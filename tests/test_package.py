"""The package's public names."""

import plattersim


def test_every_exported_name_resolves_once():
    names = plattersim.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(plattersim, name)]
    assert missing == []
