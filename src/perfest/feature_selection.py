"""Feature-combination selection.

A good combination is strongly correlated with performance but weakly
correlated internally. The combination score for a feature set F is

    score(F) = sum_i |corr(f_i, F1)| - sum_{i<j} |corr(f_i, f_j)|

with each unordered feature pair counted once. Correlation magnitudes
(not signs) enter the score: features whose *low* values indicate good
performance are just as useful as positively correlated ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InsufficientDataError, UndefinedCorrelationError
from .features import FeatureKind

PERFORMANCE_LABEL = "F1"


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise InsufficientDataError(
            "need at least 2 points for a correlation")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError(
            "correlation undefined for a constant input vector")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix over feature labels plus the performance label."""

    labels: tuple  # label strings, PERFORMANCE_LABEL last
    values: tuple  # tuple of tuples, row-major

    def lookup(self, a, b) -> float:
        a = a.value if isinstance(a, FeatureKind) else a
        b = b.value if isinstance(b, FeatureKind) else b
        try:
            return self.values[self.labels.index(a)][self.labels.index(b)]
        except ValueError as exc:
            raise KeyError(f"label not in correlation matrix: {exc}") from exc


def correlation_matrix(feature_table, performance):
    """|Pearson r| between every feature list and the performance list.

    feature_table maps FeatureKind -> list of per-setting values; the
    performance list is aligned by position.
    """
    kinds = list(feature_table.keys())
    columns = [list(feature_table[k]) for k in kinds] + [list(performance)]
    labels = tuple([FeatureKind(k).value for k in kinds] + [PERFORMANCE_LABEL])
    m = len(columns)
    values = [[1.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            r = abs(pearson(columns[i], columns[j]))
            values[i][j] = values[j][i] = r
    return CorrelationMatrix(labels=labels,
                             values=tuple(tuple(row) for row in values))


def combination_score(kinds, corr: CorrelationMatrix) -> float:
    """score(F): relevance-to-performance minus internal redundancy."""
    kinds = sorted({FeatureKind(k) for k in kinds}, key=lambda k: k.value)
    if not kinds:
        raise ValueError("combination must be non-empty")
    score = sum(corr.lookup(k, PERFORMANCE_LABEL) for k in kinds)
    for a, b in itertools.combinations(kinds, 2):
        score -= corr.lookup(a, b)
    return score


def enumerate_combinations(kinds):
    """All non-empty subsets, smallest first, lexicographic within a size."""
    kinds = sorted((FeatureKind(k) for k in kinds), key=lambda k: k.value)
    subsets = []
    for size in range(1, len(kinds) + 1):
        subsets.extend(itertools.combinations(kinds, size))
    return [frozenset(s) for s in subsets]


def rank_combinations(feature_table, performance):
    """Score every non-empty subset; returns [(subset, score)] best first.

    Ordering is stable for ties: smaller subsets first, then lexicographic.
    """
    corr = correlation_matrix(feature_table, performance)
    scored = [(s, combination_score(s, corr))
              for s in enumerate_combinations(feature_table.keys())]
    # stable sort preserves the smallest-then-lexicographic tie-break
    scored.sort(key=lambda kv: -kv[1])
    return scored, corr


def select_best_combination(feature_table, performance) -> frozenset:
    """Exhaustive argmax of the combination score over all non-empty subsets."""
    scored, _ = rank_combinations(feature_table, performance)
    return scored[0][0]
