"""Sorted-and-interpolated fixed-dimension feature profiles."""

import numpy as np
import pytest

from perfest.core import InvocationRecord, SettingBatch, TokenStep
from perfest.errors import ConfigurationError, EmptyProfileError, ShapeError
from perfest.features import FeatureKind, nll
from perfest.profile import (
    FeatureProfile,
    build_profile,
    interpolate_profile,
)
from perfest.services import MarketplaceConfig, synth_marketplace


def test_identity_when_d_equals_size():
    assert list(interpolate_profile([3, 1, 4, 2], 4)) == [1, 2, 3, 4]


def test_integral_positions():
    assert list(interpolate_profile([1, 2, 3, 4], 2)) == [2, 4]


def test_single_value_broadcasts():
    assert list(interpolate_profile([10], 3)) == [10, 10, 10]


def test_fractional_positions_interpolate_linearly():
    # |D|=2, d=4: positions 0.5, 1.0, 1.5, 2.0 over sorted [1, 3]; the
    # below-range position clamps both neighbors to the first value
    got = interpolate_profile([3, 1], 4)
    assert list(got) == pytest.approx([1.0, 1.0, 2.0, 3.0], abs=1e-12)


def test_empty_values_rejected():
    with pytest.raises(EmptyProfileError):
        interpolate_profile([], 4)


def test_bad_dimension_rejected():
    with pytest.raises((ValueError, ShapeError)):
        interpolate_profile([1.0], 0)
    for d in (2.5, True, "3"):
        with pytest.raises(ShapeError):
            interpolate_profile([1.0], d)


def test_permutation_invariance():
    rng = np.random.default_rng(21)
    for _ in range(200):
        vals = rng.normal(size=int(rng.integers(1, 40)))
        base = interpolate_profile(vals.tolist(), 16)
        shuffled = rng.permutation(vals)
        assert np.array_equal(base, interpolate_profile(shuffled.tolist(), 16))


def test_profiles_monotone_and_bounded():
    rng = np.random.default_rng(22)
    for _ in range(200):
        vals = rng.normal(size=int(rng.integers(1, 60)))
        prof = np.asarray(interpolate_profile(vals.tolist(), 25))
        assert np.all(np.diff(prof) >= -1e-12)
        assert prof.min() >= vals.min() - 1e-12
        assert prof.max() <= vals.max() + 1e-12


def test_idempotence_at_same_dimension():
    rng = np.random.default_rng(23)
    vals = rng.normal(size=50).tolist()
    once = interpolate_profile(vals, 20)
    twice = interpolate_profile(list(once), 20)
    assert np.allclose(once, twice, atol=1e-12)


def make_record(i, p1):
    return InvocationRecord(
        service_id="svc00", task_id="task00", context_id="ctx00",
        sample_id="s%04d" % i, input_text="q", generated_text="a",
        output_steps=(TokenStep("a", (("a", p1),)),),
        input_scores=(p1,))


def test_build_profile_single_record_repeats_its_nll():
    rec = make_record(0, 0.5)
    prof = build_profile(SettingBatch.from_records([rec]),
                         kinds=(FeatureKind.NLL,), d=4)
    want = float(nll(SettingBatch.from_records([rec]))[0])
    assert list(prof.vector) == pytest.approx([want] * 4, abs=1e-12)
    assert prof.service_id == "svc00"
    assert prof.dims == 4


def test_build_profile_two_kind_layout():
    rng = np.random.default_rng(31)
    recs = [make_record(i, float(p))
            for i, p in enumerate(rng.uniform(0.1, 0.99, size=400))]
    prof = build_profile(SettingBatch.from_records(recs),
                         kinds=(FeatureKind.NLL, FeatureKind.PPL), d=100)
    assert len(prof.vector) == 200
    first = np.asarray(prof.segment(FeatureKind.NLL))
    second = np.asarray(prof.segment(FeatureKind.PPL))
    assert np.all(np.diff(first) >= -1e-12)
    assert np.all(np.diff(second) >= -1e-12)
    assert np.array_equal(first, prof.vector[:100])
    assert np.array_equal(second, prof.vector[100:])


def test_build_profile_kind_order_swaps_halves():
    rng = np.random.default_rng(32)
    recs = [make_record(i, float(p))
            for i, p in enumerate(rng.uniform(0.1, 0.99, size=50))]
    batch = SettingBatch.from_records(recs)
    a = build_profile(batch, kinds=(FeatureKind.NLL, FeatureKind.PPL), d=40)
    b = build_profile(batch, kinds=(FeatureKind.PPL, FeatureKind.NLL), d=40)
    assert np.array_equal(a.vector[:40], b.vector[40:])
    assert np.array_equal(a.vector[40:], b.vector[:40])


def test_profile_vector_length_checked():
    with pytest.raises(ShapeError):
        FeatureProfile(service_id="s", task_id="t", context_id="c",
                       kinds=(FeatureKind.NLL,), dims=4,
                       vector=(1.0, 2.0))


def two_kind_profile(vector, context_id="c"):
    return FeatureProfile(service_id="s", task_id="t", context_id=context_id,
                          kinds=(FeatureKind.NLL, FeatureKind.PPL), dims=2,
                          vector=vector)


def test_profiles_are_equal_by_value_and_hash_alike():
    a = two_kind_profile((1.0, 2.0, 3.0, 4.0))
    b = two_kind_profile(np.array([1.0, 2.0, 3.0, 4.0]))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != two_kind_profile((1.0, 2.0, 3.0, 5.0))
    assert a != two_kind_profile((1.0, 2.0, 3.0, 4.0), context_id="d")
    assert a != FeatureProfile(service_id="s", task_id="t", context_id="c",
                               kinds=(FeatureKind.NLL,), dims=4,
                               vector=(1.0, 2.0, 3.0, 4.0))
    assert a != (1.0, 2.0, 3.0, 4.0)
    assert list(a.segment(FeatureKind.NLL)) == [1.0, 2.0]
    assert list(a.segment("ppl")) == [3.0, 4.0]


def test_profile_vector_is_read_only():
    prof = two_kind_profile([1.0, 2.0, 3.0, 4.0])
    assert prof.vector.dtype == np.float64
    with pytest.raises(ValueError):
        prof.vector[0] = 9.0
    with pytest.raises(ValueError):
        prof.segment(FeatureKind.PPL)[0] = 9.0
    assert list(prof.vector) == [1.0, 2.0, 3.0, 4.0]


def test_tuple_list_and_array_give_equal_profiles():
    values = [0.5, 1.5, 2.5, 3.5]
    source = np.array(values)
    profiles = [two_kind_profile(tuple(values)), two_kind_profile(values),
                two_kind_profile(source)]
    assert profiles[0] == profiles[1] == profiles[2]
    # a writable array is copied, so changing it leaves the profile as is
    source[0] = 9.0
    assert list(profiles[2].vector) == values


def test_build_profile_needs_a_feature_kind():
    batch = SettingBatch.from_records([make_record(0, 0.5)])
    with pytest.raises(ConfigurationError):
        build_profile(batch, kinds=(), d=4)
