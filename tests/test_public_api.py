"""The package's public names: everything exported exists, everything imported is exported."""

import importlib
import importlib.util
import pathlib
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


def test_every_benchmark_patch_point_resolves():
    # bench/tracing.py wraps these names where callers look them up; a
    # trim that deletes one breaks the benchmark's traced mode.
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, *_ in tracing.PATCHES
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.PATCHES
    assert missing == []
