"""The benchmark's tracer looks the library up by name and silently leaves
out the metrics of any name it cannot find, so a rename in ``wonderful``
would thin out a traced run's metric line without failing it.  These checks
resolve the names the way ``Tracer.install`` does, without installing it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TRACED)


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves_to_a_callable(name):
    layer, _, qualname = name.partition(".")
    owner = importlib.import_module("wonderful." + layer)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_center_to_locus_reports_its_cache():
    from wonderful import loci

    assert callable(loci.center_to_locus.cache_info)
