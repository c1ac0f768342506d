"""Label-dependent reference estimators: Sample^n, AvgTrain, ATC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfest.baselines import (
    atc_calibrate,
    atc_estimate,
    avg_train_estimate,
    sample_n_estimate,
)
from perfest.errors import InsufficientDataError
from perfest.seeding import derive_rng

KEY = ("svc00", "task00", "ctx00")


def frozen_sample_n(per_f1, contexts, n, seed, s, t):
    """run_experiment's inline Sample^n block for one (service, task),
    as it stood before Sample^n moved into baselines (frozen); per_f1[c]
    is context c's per-sample F1 array."""
    vals = []
    for c in contexts:
        per = per_f1[c]
        if len(per) < n:
            raise InsufficientDataError(
                f"setting {(s, t, c)} has {len(per)} labeled "
                f"samples, need {n}")
        rng = derive_rng(seed, "samplen", s, t, c)
        order = rng.permutation(len(per))
        vals.append(float(np.mean(per[order[:n]])))
    return float(np.mean(vals))


# few distinct values, so contexts hold tied F1 scores
F1_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]),
                      st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(F1_VALUES, min_size=1, max_size=12),
                min_size=1, max_size=4),
       st.integers(0, 2 ** 32), st.data())
def test_sample_n_equals_the_inline_block_bit_for_bit(columns, seed, data):
    n = data.draw(st.integers(1, min(map(len, columns))))
    contexts = ["ctx%02d" % k for k in range(len(columns))]
    per_f1 = {c: np.array(col) for c, col in zip(contexts, columns)}
    want = frozen_sample_n(per_f1, contexts, n, seed, "svc01", "task02")
    got = sample_n_estimate({("svc01", "task02", c): per_f1[c]
                             for c in contexts}, n, seed)
    assert got.hex() == want.hex()


def test_sample_n_single_value():
    assert sample_n_estimate({KEY: [0.5]}, 1, seed=0) == 0.5


def test_sample_n_two_values_mean():
    assert sample_n_estimate({KEY: [0.0, 1.0]}, 2, seed=0) == 0.5


def test_sample_n_two_contexts_hand_table():
    rng = np.random.default_rng(70)
    table = {("svc00", "task00", "ctx00"): rng.uniform(size=8),
             ("svc00", "task00", "ctx01"): rng.uniform(size=8)}
    # n equal to the context size averages every sample, whatever the seed
    expected = 0.5 * sum(f1.mean() for f1 in table.values())
    for seed in (0, 1, 2):
        got = sample_n_estimate(table, 8, seed)
        assert got == pytest.approx(expected, abs=1e-12)


def test_sample_n_uses_the_seeded_permutation():
    f1 = np.array([1.0, 1.0, 0.0, 0.0])
    estimates = set()
    for seed in range(20):
        first = derive_rng(seed, "samplen", *KEY).permutation(4)[:2]
        got = sample_n_estimate({KEY: f1}, 2, seed)
        assert got == f1[first].mean()
        estimates.add(got)
    # the labeled pair is drawn at random, not the first two samples
    assert estimates == {0.0, 0.5, 1.0}


def test_sample_n_insufficient_labels_raises():
    with pytest.raises(InsufficientDataError):
        sample_n_estimate({KEY: [0.5]}, 2, seed=0)
    with pytest.raises(InsufficientDataError):
        sample_n_estimate({KEY: [0.5]}, 0, seed=0)
    with pytest.raises(InsufficientDataError):
        sample_n_estimate({KEY: [0.5, 0.7]}, 1.5, seed=0)
    with pytest.raises(InsufficientDataError):
        sample_n_estimate({}, 1, seed=0)


def test_avg_train_mean_and_empty():
    assert avg_train_estimate([0.2, 0.4, 0.9]) == pytest.approx(0.5)
    with pytest.raises(InsufficientDataError):
        avg_train_estimate([])


def test_atc_calibrate_two_point_example():
    cal = atc_calibrate([0.1, 0.9], [0.0, 1.0])
    assert cal == pytest.approx(0.5)
    assert atc_estimate([cal], [0.1, 0.9]) == pytest.approx(0.5)


def test_atc_calibrate_all_correct():
    cal = atc_calibrate([0.3, 0.6, 0.8], [1.0, 1.0, 1.0])
    assert cal < 0.3
    assert atc_estimate([cal], [0.3, 0.6, 0.8]) == pytest.approx(1.0)


def test_atc_calibrate_all_wrong():
    cal = atc_calibrate([0.3, 0.6, 0.8], [0.0, 0.0, 0.0])
    assert cal >= 0.8
    assert atc_estimate([cal], [0.3, 0.6, 0.8]) == pytest.approx(0.0)


def test_atc_calibrated_fraction_matches_accuracy_when_attainable():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        conf = rng.uniform(size=n)
        # accuracy expressible as a multiple of 1/n is always attainable
        target = int(rng.integers(0, n + 1))
        correct = [1.0] * target + [0.0] * (n - target)
        cal = atc_calibrate(conf.tolist(), correct)
        frac = float(np.mean(conf > cal))
        assert frac == pytest.approx(target / n, abs=1e-12)


def test_atc_estimate_monotone_in_threshold():
    rng = np.random.default_rng(72)
    conf = rng.uniform(size=40).tolist()
    # larger source accuracy never yields a larger threshold, so the
    # estimated fraction-above is monotone in the calibration accuracy
    estimates = []
    for correct in range(0, 11):
        cal = atc_calibrate(np.linspace(0.05, 0.95, 10).tolist(),
                            [1.0] * correct + [0.0] * (10 - correct))
        estimates.append(atc_estimate([cal], conf))
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))


def test_atc_estimate_threshold_below_all():
    cal = atc_calibrate([0.5], [1.0])
    assert atc_estimate([cal], [0.6, 0.7, 0.9]) == pytest.approx(1.0)


def test_atc_estimate_averages_calibrations():
    # thresholds at 0.5 and 0.9 over targets [0.6, 0.7, 0.95, 0.97, 0.99]
    # give fractions 1.0 and 0.6; hand-build via degenerate calibrations
    cal_lo = atc_calibrate([0.4, 0.6], [1.0, 1.0])  # threshold < 0.4
    cal_hi = atc_calibrate([0.4, 0.6], [0.0, 0.0])  # threshold >= 0.6
    targets = [0.2, 0.3, 0.5, 0.7, 0.9]
    lo = float(np.mean(np.asarray(targets) > cal_lo))
    hi = float(np.mean(np.asarray(targets) > cal_hi))
    got = atc_estimate([cal_lo, cal_hi], targets)
    assert got == pytest.approx((lo + hi) / 2, abs=1e-12)
    assert got == pytest.approx((1.0 + 0.4) / 2, abs=1e-12)


def test_atc_estimate_hand_mean_of_three_calibrations():
    confs = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
    cals = [atc_calibrate([0.1, 0.9], [0.0, 1.0]),      # t = 0.5
            atc_calibrate([0.2, 0.8], [1.0, 1.0]),      # t < 0.2
            atc_calibrate([0.2, 0.8], [0.0, 0.0])]      # t >= 0.8
    fractions = [float(np.mean(np.asarray(confs) > c))
                 for c in cals]
    assert atc_estimate(cals, confs) == pytest.approx(
        sum(fractions) / 3, abs=1e-12)
    assert atc_estimate(cals, confs) == pytest.approx(
        (0.5 + 1.0 + 0.2) / 3, abs=1e-12)


def test_atc_empty_inputs_rejected():
    with pytest.raises(InsufficientDataError):
        atc_calibrate([], [])
    with pytest.raises(InsufficientDataError):
        atc_calibrate([0.5], [1.0, 0.0])
    cal = atc_calibrate([0.5], [1.0])
    with pytest.raises(InsufficientDataError):
        atc_estimate([], [0.5])
    with pytest.raises(InsufficientDataError):
        atc_estimate([cal], [])
