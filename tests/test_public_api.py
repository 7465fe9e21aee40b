"""The package's public names: everything exported exists, everything imported is exported."""

import types

import v2xcal


def test_every_exported_name_resolves():
    missing = [name for name in v2xcal.__all__ if not hasattr(v2xcal, name)]
    assert missing == []
    assert len(set(v2xcal.__all__)) == len(v2xcal.__all__)


def test_every_public_import_is_exported():
    public = {name for name, value in vars(v2xcal).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(v2xcal.__all__)) == []
