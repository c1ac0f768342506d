"""The benchmark's tracer finds every name it wraps, and its workloads
run.

perfbench/tracing.py replaces perfest functions under each module name
that holds them. A name that a refactor removes makes every traced
benchmark job fail, so this test checks the names without installing the
tracer. perfbench/workloads.py calls perfest through its modules; each
workload's set-up, job and check run here at the tiny shape.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of the job outputs at seeds 0, 1 and 2, tiny shape. meta-fit is
# not pinned: its MLP and KNN go through BLAS matrix products, whose
# rounding can differ from one CPU to another.
DIGESTS = {
    "cv-experiment": (
        "cc83cab372cca70a0c3f2347eda8786b6bef69a491f63441d664f7329b7049cc",
        "e3538964f9570ae0acbd43be8a835f8493aa768949b97a3f4fea249a17c3d493",
        "b55d693e8976caac2ac4a20832d3b99d15b91c1118ac0d7585321da5d9e2a9cd"),
    "cli-pipeline": (
        "116178755fb75a435f591732837afe365b6af873fdaa45bfc5e66ba1e51e8b3e",
        "745d26ef9f7e6e2f72647911111e6b4af39afd4f046c5ea61dbc3cca06be2054",
        "37c152d833e158adf721e0a7e65a72c1c2582d0ac939c669ffd9a0dda79914e7"),
}
# sha256 of meta-fit's set-up, each training and held-out row's profile
# vector and target, at seeds 0, 1 and 2, tiny shape; building them makes
# no BLAS call
META_SETUP_DIGESTS = (
    "8cbd23f4b1d436a1b24f7252eb3664114970c9ad45b2a26ad98c08e19302345f",
    "c1f3a736b639a1673d4218d7f5b5627960163209d02afd8e2366d3ffe9eef5eb",
    "b2e5ed89a6d2c0426a6ce41c910b5da6d4eda5d57fc91f8e506da4bc2d28f988")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooks():
    tracing = load("tracing")
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


WORKLOADS = load("workloads")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_passes_its_check_at_the_tiny_shape(tmp_path, name, seed):
    setup, job, check = WORKLOADS.WORKLOADS[name]
    shape = WORKLOADS.SHAPES[name]["tiny"]
    digests = []
    for run in ("first", "second"):
        workdir = tmp_path / run
        workdir.mkdir()
        inputs = setup(shape, seed, str(workdir))
        if name == "meta-fit":
            train, test = inputs
            rows = [[r.profile.vector.tolist(), r.target]
                    for r in train + test]
            assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() \
                == META_SETUP_DIGESTS[seed]
        out = job(shape, seed, inputs, str(workdir))
        checks, _, digest = check(shape, seed, inputs, out, str(workdir))
        assert all(checks.values()), checks
        digests.append(digest)
    assert digests[0] == digests[1]
    if name in DIGESTS:
        assert digests[0] == DIGESTS[name][seed]
