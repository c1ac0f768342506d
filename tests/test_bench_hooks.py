"""The benchmark's tracer finds every name it wraps.

perfbench/tracing.py replaces perfest functions under each module name
that holds them. A name that a refactor removes makes every traced
benchmark job fail, so this test checks the names without installing the
tracer.
"""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooks():
    tracing = load_tracing()
    for _, owners, attr, *_ in tracing.TRACED + tracing.COUNTED:
        for owner in owners:
            yield pytest.param(owner, attr,
                               id=f"{owner.__name__}.{attr}")


@pytest.mark.parametrize("owner,attr", list(hooks()))
def test_traced_name_exists(owner, attr):
    assert callable(getattr(owner, attr, None)), \
        f"{owner.__name__} has no {attr}"


def test_required_hooks_are_listed():
    names = {(owner.__name__, attr) for owner, attr in
             (p.values for p in hooks())}
    for name in (("perfest.evaluation", "sequence_confidence"),
                 ("perfest.evaluation", "build_profile"),
                 ("perfest.evaluation", "per_sample_f1"),
                 ("perfest.cli", "read_records"),
                 ("perfest.cli", "synth_marketplace")):
        assert name in names
