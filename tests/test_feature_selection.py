"""Correlation-based feature combination scoring and exhaustive selection."""

import itertools
import math

import numpy as np
import pytest

from perfest.errors import UndefinedCorrelationError
from perfest.feature_selection import (
    PERFORMANCE_LABEL,
    CorrelationMatrix,
    combination_score,
    correlation_matrix,
    enumerate_combinations,
    pearson,
    rank_combinations,
    select_best_combination,
)
from perfest.features import FeatureKind


def test_pearson_perfect_linear():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_anti_linear():
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=20).tolist()
    ys = rng.normal(size=20).tolist()
    r = pearson(xs, ys)
    assert pearson(ys, xs) == pytest.approx(r, abs=1e-12)
    shifted = [3.0 * x + 7.0 for x in xs]
    assert pearson(shifted, ys) == pytest.approx(r, abs=1e-10)
    flipped = [-2.0 * x for x in xs]
    assert pearson(flipped, ys) == pytest.approx(-r, abs=1e-10)


def test_pearson_constant_vector_undefined():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_stays_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(50):
        xs = rng.normal(size=5).tolist()
        ys = (np.array(xs) * rng.uniform(0.5, 2) + rng.normal(size=5) * 1e-9)
        assert -1.0 <= pearson(xs, ys.tolist()) <= 1.0


def fixed_matrix(to_perf, pairwise):
    """Correlation matrix with prescribed entries for NLL/PPL/GAP/MAXENT."""
    kinds = sorted(FeatureKind, key=lambda k: k.value)
    labels = tuple([k.value for k in kinds] + [PERFORMANCE_LABEL])
    m = len(labels)
    values = [[1.0] * m for _ in range(m)]
    for i, a in enumerate(kinds):
        values[i][m - 1] = values[m - 1][i] = to_perf[a]
        for j in range(i + 1, len(kinds)):
            b = kinds[j]
            r = pairwise.get(frozenset((a, b)), 0.0)
            values[i][j] = values[j][i] = r
    return CorrelationMatrix(labels=labels,
                             values=tuple(tuple(row) for row in values))


def test_combination_score_singleton_has_no_pair_term():
    corr = fixed_matrix({k: 0.8 for k in FeatureKind}, {})
    assert combination_score({FeatureKind.NLL}, corr) == pytest.approx(0.8)


def test_combination_score_two_features():
    corr = fixed_matrix(
        {FeatureKind.NLL: 0.8, FeatureKind.PPL: 0.7,
         FeatureKind.GAP: 0.0, FeatureKind.MAXENT: 0.0},
        {frozenset((FeatureKind.NLL, FeatureKind.PPL)): 0.3})
    got = combination_score({FeatureKind.NLL, FeatureKind.PPL}, corr)
    assert got == pytest.approx(1.2, abs=1e-12)


def test_combination_score_fully_redundant_triple():
    kinds = (FeatureKind.NLL, FeatureKind.PPL, FeatureKind.GAP)
    pairwise = {frozenset(p): 0.5 for p in itertools.combinations(kinds, 2)}
    corr = fixed_matrix({k: 0.5 for k in FeatureKind}, pairwise)
    assert combination_score(set(kinds), corr) == pytest.approx(0.0, abs=1e-12)


def test_enumerate_combinations_covers_all_15_subsets():
    subsets = enumerate_combinations(FeatureKind)
    assert len(subsets) == 15
    assert len(set(subsets)) == 15
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)


def synth_table(rng, n, informative, noise=0.05):
    """Feature table where `informative` kinds track performance strongly
    and independently; the rest are near-noise."""
    perf = rng.uniform(0.1, 0.9, size=n)
    table = {}
    for kind in FeatureKind:
        if kind in informative:
            sign = -1.0 if kind in (FeatureKind.NLL, FeatureKind.PPL) else 1.0
            col = sign * perf + rng.normal(0, noise, size=n)
        else:
            col = rng.normal(0, 1.0, size=n)
        table[kind] = col.tolist()
    return table, perf.tolist()


def brute_force_best(table, perf):
    corr = correlation_matrix(table, perf)
    subsets = enumerate_combinations(table.keys())
    scores = [combination_score(s, corr) for s in subsets]
    return subsets[int(np.argmax(scores))]


def test_selects_nll_ppl_when_both_informative_and_independent():
    rng = np.random.default_rng(42)
    n = 600
    perf = rng.uniform(0.1, 0.9, size=n)
    z = (perf - perf.mean()) / perf.std()
    noise = rng.normal(size=(4, n))
    # NLL and PPL each track performance with |r| near 0.9; GAP and MAXENT
    # track it weakly (|r| near 0.3), so any subset containing them pays
    # more in redundancy than it gains in relevance
    table = {
        FeatureKind.NLL: (-(0.9 * z + math.sqrt(0.19) * noise[0])).tolist(),
        FeatureKind.PPL: (-(0.9 * z + math.sqrt(0.19) * noise[1])).tolist(),
        FeatureKind.GAP: (0.3 * z + math.sqrt(0.91) * noise[2]).tolist(),
        FeatureKind.MAXENT: (-0.3 * z + math.sqrt(0.91) * noise[3]).tolist(),
    }
    best = select_best_combination(table, perf.tolist())
    assert best == frozenset({FeatureKind.NLL, FeatureKind.PPL})
    assert best == brute_force_best(table, perf.tolist())


def test_selects_lone_informative_feature():
    rng = np.random.default_rng(43)
    table, perf = synth_table(rng, 300, {FeatureKind.GAP})
    best = select_best_combination(table, perf)
    assert best == frozenset({FeatureKind.GAP})
    assert best == brute_force_best(table, perf)


def test_duplicate_feature_loses_to_singleton():
    rng = np.random.default_rng(44)
    perf = rng.uniform(0.1, 0.9, size=200).tolist()
    col = [-p + 0.1 for p in perf]
    table = {FeatureKind.NLL: col, FeatureKind.PPL: list(col)}
    corr = correlation_matrix(table, perf)
    single = combination_score({FeatureKind.NLL}, corr)
    pair = combination_score({FeatureKind.NLL, FeatureKind.PPL}, corr)
    # score of the identical pair is 2r - 1 < r for r < 1
    assert pair == pytest.approx(2 * single - 1.0, abs=1e-9)
    assert select_best_combination(table, perf) in (
        frozenset({FeatureKind.NLL}), frozenset({FeatureKind.PPL}))
    assert len(select_best_combination(table, perf)) == 1


def test_rank_combinations_matches_exhaustive_oracle_on_random_tables():
    rng = np.random.default_rng(45)
    for _ in range(10):
        table = {k: rng.normal(size=30).tolist() for k in FeatureKind}
        perf = rng.uniform(size=30).tolist()
        scored, corr = rank_combinations(table, perf)
        assert len(scored) == 15
        got_scores = [s for _, s in scored]
        assert got_scores == sorted(got_scores, reverse=True)
        for subset, score in scored:
            assert score == pytest.approx(
                combination_score(subset, corr), abs=1e-12)


def test_tie_break_prefers_smaller_subset():
    # two perfectly redundant copies: {NLL} and {PPL} tie; the pair scores
    # lower; ranking must put a singleton first
    perf = [0.1, 0.4, 0.3, 0.8, 0.6]
    col = [-p for p in perf]
    table = {FeatureKind.NLL: col, FeatureKind.PPL: list(col)}
    scored, _ = rank_combinations(table, perf)
    assert scored[0][0] == frozenset({FeatureKind.NLL})
    assert scored[1][0] == frozenset({FeatureKind.PPL})
