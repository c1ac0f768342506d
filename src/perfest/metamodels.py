"""Meta-model regressors mapping feature profiles to performance in [0, 1].

Four small regressors are provided: k-nearest neighbors, a one-hidden-
layer MLP trained by full-batch gradient descent, a random forest of
variance-reduction regression trees, and gradient-boosted trees with
shrinkage. All are implemented directly on numpy so that gradients,
tree structure, and serialized state are fully inspectable and
deterministic given (spec, rows, seed).

Distance- and gradient-based learners (kNN, MLP) consume z-scored
profiles; trees are scale-invariant and consume raw profiles.
Predictions are clipped to [0, 1] since targets are F1 scores.

The MLP trains with float32 matrix products, which move half the bytes
of float64 ones, and float64 weights, as mixed-precision training keeps
full-precision master weights (Micikevicius et al. 2018): weight updates
do not round to float32, and the loss and the output bias stay float64.
Its predictions stay within 1e-5 of float64 training for as many epochs.
Early stopping ends once its own loss improves by less than 1e-8; float32
rounding of that loss can move the stop some epochs from float64
training's where improvements hover near 1e-8. Prediction,
``save_model`` and ``load_model`` run in float64, and the gradient check
runs ``mlp_loss_and_grads`` in float64.

Tree split search is exact and sorts floats once per model: ``train``
turns each feature of the training matrix into dense integer ranks
(equal values share a rank) with one stable argsort, and each bootstrap
or subsample tree argsorts its rows' ranks, which numpy radix-sorts and
which orders them as a stable argsort of their values would. Each split
hands its children their rows, and those rows' ranks, by a stable
partition of the parent's (features, rows) sorted matrices, as in the
pre-sorted column blocks of XGBoost's exact greedy algorithm (Chen &
Guestrin 2016). A node scans the same boundaries in the same order as a
per-node stable argsort would; a boundary is valid where adjacent ranks
differ, and its score arithmetic runs in one workspace per tree. A NaN
has no place in a sorted order, and a boundary next to an infinity has no
finite midpoint, so a training profile holding a non-finite value is a
``ValidationError``.

Random forests and GBT grow their trees through one core. Each tree draws
its rows, and then, when ``feature_ratio`` leaves fewer than all p
columns, ``round(feature_ratio * p)`` of them, from its own seeded
generator; the tree searches only those columns (a random subspace, Ho
1998; Breiman's ``mtry`` for forests, 2001; per-tree column subsampling
for boosting, Chen & Guestrin 2016), and its split features are mapped
back to profile positions. Both default to a third of the columns: a
profile's columns are two strongly correlated quantile curves, and on
the synthetic marketplace a third estimates as well as all of them.
``feature_ratio=1.0`` is the paper's forest and boosting, which search
every column. A random forest or GBT model keeps its trees alone; a
prediction stacks their node arrays into one ``TreeStack``, and one
vectorized walk moves every tree's node for every row at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import read_json, write_json
from .errors import (ConfigurationError, InsufficientDataError,
                     ModelFormatError, ShapeError, ValidationError, is_int,
                     is_real)
from .features import FeatureKind
from .profile import FeatureProfile

MODEL_FORMAT = "perfest-metamodel/1"
MIN_LEAF = 2


class ModelKind(str, Enum):
    KNN = "knn"
    MLP = "mlp"
    RANDOM_FOREST = "random_forest"
    GBT = "gbt"


DEFAULT_HYPERPARAMS = {
    ModelKind.KNN: {"k": 3},
    ModelKind.MLP: {"hidden_width": 64, "learning_rate": 1e-2,
                    "epochs": 2000},
    ModelKind.RANDOM_FOREST: {"max_depth": 10, "n_trees": 260,
                              "sampling_ratio": 0.8, "feature_ratio": 1 / 3},
    ModelKind.GBT: {"max_depth": 4, "n_rounds": 200, "learning_rate": 0.1,
                    "sampling_ratio": 0.8, "feature_ratio": 1 / 3},
}


# the widest MLP: 16 times the default 64. The first layer holds
# profile columns x width floats, 134 MB at 4 kinds x MAX_DIMS columns.
MAX_HIDDEN_WIDTH = 1024
# the largest tree sample: four times the largest the tests use (2.5).
# A forest tree copies sampling_ratio x rows of the matrix, and a
# bootstrap past a few times the rows only repeats them.
MAX_SAMPLING_RATIO = 10.0

# the legal values of each hyperparameter, as (description, test)
HYPERPARAM_RANGES = {
    "n_trees": ("an integer >= 1", lambda v: is_int(v, 1)),
    "k": ("an integer >= 1", lambda v: is_int(v, 1)),
    "hidden_width": (f"an integer in [1, {MAX_HIDDEN_WIDTH}]",
                     lambda v: is_int(v, 1, MAX_HIDDEN_WIDTH)),
    "max_depth": ("an integer >= 0", lambda v: is_int(v, 0)),
    "epochs": ("an integer >= 0", lambda v: is_int(v, 0)),
    "n_rounds": ("an integer >= 0", lambda v: is_int(v, 0)),
    "learning_rate": ("a finite number > 0",
                      lambda v: is_real(v, 0) and v > 0),
    "sampling_ratio": (f"a number in (0, {MAX_SAMPLING_RATIO:g}]",
                       lambda v: is_real(v, 0, MAX_SAMPLING_RATIO) and v > 0),
    "feature_ratio": ("a number in (0, 1]",
                      lambda v: is_real(v, 0, 1) and v > 0),
}


@dataclass(frozen=True)
class ModelSpec:
    """A model kind and its hyperparameters, the kind's defaults filled in.

    Raises ConfigurationError when a hyperparameter is not one of the
    kind's or is outside ``HYPERPARAM_RANGES``.
    """

    kind: ModelKind
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        merged = dict(DEFAULT_HYPERPARAMS[self.kind])
        for name in self.hyperparams:
            if name not in merged:
                raise ConfigurationError(
                    f"{self.kind.value} has no hyperparameter {name!r}; "
                    f"it takes {', '.join(sorted(merged))}")
        merged.update(self.hyperparams)
        object.__setattr__(self, "hyperparams", merged)
        for name, value in merged.items():
            legal, ok = HYPERPARAM_RANGES[name]
            if not ok(value):
                raise ConfigurationError(
                    f"hyperparameter {name!r} must be {legal}, got {value!r}")


@dataclass(frozen=True)
class TrainingRow:
    profile: FeatureProfile
    target: float

    def __post_init__(self):
        if not (0.0 <= self.target <= 1.0):
            raise ValueError(f"target {self.target} outside [0, 1]")


@dataclass
class TrainedMetaModel:
    spec: ModelSpec
    seed: int
    dims: int
    kinds: tuple  # FeatureKind ordering the profiles were built with
    mean: np.ndarray  # standardization stats (identity for tree models)
    std: np.ndarray
    params: dict  # kind-specific learned state


# ---------------------------------------------------------------------------
# Regression tree (CART, variance reduction, exact presorted split search)

class RegressionTree:
    """Depth-bounded binary regression tree stored as flat node arrays.

    ``feature`` is -1 at leaves, whose ``left`` and ``right`` are -1 too;
    an internal node's children sit at higher indices than the node.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def fit(self, X, y, max_depth, ranks):
        """Grow the tree on rows ``X`` (n, p) with targets ``y``.

        ``ranks`` (p, n) orders each feature's values as ``dense_ranks(X)``
        does; a model passes its training matrix's ranks at the tree's
        rows, so the float sort happens once per model. The root argsorts
        each feature's integer ranks. A node holds its rows in each
        feature's sorted order, with their ranks, as (p, m) matrices; a
        child takes its rows from its parent's by a stable partition, which
        is the order a stable argsort of the child's rows would give.
        """
        n, p = X.shape
        order = np.argsort(ranks, axis=1, kind="stable")
        # each feature's ranks in its sorted order
        ranks = ranks.ravel().take(order + np.arange(0, p * n, n)[:, None])
        scan = _SplitScan(y, p * n)
        feature, threshold, left, right = [-1], [0.0], [-1], [-1]
        value = [0.0]
        goes_left = np.zeros(n, dtype=bool)
        # (node, rows, rows and ranks in each feature's order, depth); the
        # sorted matrices are None for a node that will not be searched
        stack = [(0, np.arange(n), order, ranks, 0)]
        while stack:
            node, idx, order, ranks, depth = stack.pop()
            # np.mean's arithmetic (pairwise sum, then divide), without
            # its per-call overhead
            value[node] = float(y.take(idx).sum() / idx.shape[0])
            if depth >= max_depth or idx.shape[0] < 2 * MIN_LEAF:
                continue
            feat, a, b = scan.best_split(order, ranks)
            if feat < 0:
                continue
            thr = float(0.5 * (X[a, feat] + X[b, feat]))
            go_left = X[:, feat].take(idx) <= thr
            li = len(feature)
            feature[node] = feat
            threshold[node] = thr
            left[node] = li
            right[node] = li + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            value += [0.0, 0.0]
            # only a child that will be searched needs its sorted rows
            sorted_left = None
            if depth + 1 < max_depth:
                goes_left[idx] = go_left
                sorted_left = goes_left.take(order).ravel()
            for child, side, sorted_side in (
                    (li, go_left, sorted_left),
                    (li + 1, ~go_left,
                     None if sorted_left is None else ~sorted_left)):
                rows = idx.compress(side)
                if sorted_side is None or rows.shape[0] < 2 * MIN_LEAF:
                    stack.append((child, rows, None, None, depth + 1))
                else:
                    stack.append((child, rows, *_partition(
                        order, ranks, sorted_side), depth + 1))
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=float)
        return self

    def to_obj(self):
        return {name: getattr(self, name).tolist() for name in self.__slots__}

    @classmethod
    def from_obj(cls, obj, width):
        """Tree from ``to_obj`` output, checked for inputs of ``width``.

        Raises ModelFormatError unless every node array has the same
        length, features lie in [-1, width), leaves have no children and
        an internal node's children lie after it, so traversal ends.
        """
        tree = cls()
        for name in cls.__slots__:
            setattr(tree, name, _array(obj, name, (None,), integer=name in (
                "feature", "left", "right")))
        size = tree.feature.shape[0]
        if size == 0 or any(getattr(tree, name).shape[0] != size
                            for name in cls.__slots__):
            raise ModelFormatError("tree node arrays are empty or differ "
                                   "in length")
        if np.any((tree.feature < -1) | (tree.feature >= width)):
            raise ModelFormatError(
                f"tree feature index outside [-1, {width})")
        split = tree.feature >= 0
        at = np.arange(size)
        for child in (tree.left, tree.right):
            ok = np.where(split, (child > at) & (child < size), child == -1)
            if not ok.all():
                raise ModelFormatError(
                    f"tree child index {int(child[~ok][0])} at node "
                    f"{int(at[~ok][0])} is not a later node")
        return tree


def _partition(order, ranks, keep):
    """The entries of each row of ``order`` and ``ranks`` (p, m) that
    ``keep`` (flat) marks, in order, as two (p, k) matrices."""
    at = np.flatnonzero(keep)
    p = order.shape[0]
    return (order.ravel().take(at).reshape(p, -1),
            ranks.ravel().take(at).reshape(p, -1))


def dense_ranks(X):
    """(p, n) dense ranks of each column of ``X`` (n, p), from one stable
    float argsort per column.

    Equal values share a rank and ranks rise with the value, so a stable
    argsort of any rows' ranks is the stable argsort of their values. The
    dtype is the smallest unsigned one that holds n.
    """
    n, p = X.shape
    ranks = np.empty((p, n), dtype=np.min_scalar_type(n))
    dense = np.zeros(n, dtype=ranks.dtype)
    for j in range(p):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        np.cumsum(xs[1:] != xs[:-1], dtype=dense.dtype, out=dense[1:])
        ranks[j, order] = dense
    return ranks


class _SplitScan:
    """The exact split search of one tree, with one workspace sized for
    its root that every node's score arithmetic writes into."""

    __slots__ = ("y", "nl", "csum", "score", "right", "tie")

    def __init__(self, y, size):
        self.y = y
        # rows left of each split position, for the largest node
        self.nl = np.arange(MIN_LEAF, y.shape[0] - MIN_LEAF + 1, dtype=float)
        self.csum = np.empty(size)
        self.score = np.empty(size)
        self.right = np.empty(size)
        self.tie = np.empty(size, dtype=bool)

    def best_split(self, order, ranks):
        """Best split of a node by variance reduction, as (feature, row
        below, row above); (-1, -1, -1) if there is none.

        ``order`` (p, m) lists the node's rows in ascending order of each
        feature and ``ranks`` their ranks. Scans every boundary between
        distinct consecutive values of every feature that leaves MIN_LEAF
        rows on each side; ties resolve to the smallest split position,
        then the lowest feature index. The threshold lies midway between
        the two rows' values.
        """
        p, m = order.shape
        # splitting after sorted position j leaves j + 1 rows on the left
        lo, hi = MIN_LEAF - 1, m - MIN_LEAF
        w = hi - lo
        # every index is in range; mode "raise" would buffer the output
        csum = self.y.take(order, out=self.csum[:p * m].reshape(p, m),
                           mode="clip")
        np.cumsum(csum, axis=1, out=csum)
        nl = self.nl[:w]
        left_sum = csum[:, lo:hi]
        right_sum = np.subtract(csum[:, -1:], left_sum,
                                out=self.right[:p * w].reshape(p, w))
        # maximizing sum-of-squares of child means == minimizing total SSE
        score = np.square(left_sum, out=self.score[:p * w].reshape(p, w))
        score /= nl
        np.square(right_sum, out=right_sum)
        right_sum /= m - nl
        score += right_sum
        tie = np.equal(ranks[:, lo:hi], ranks[:, lo + 1:hi + 1],
                       out=self.tie[:p * w].reshape(p, w))
        np.copyto(score, -np.inf, where=tie)
        best = score.max(axis=0)
        pos = int(best.argmax())
        if not math.isfinite(best[pos]):
            return -1, -1, -1
        feat = int(score[:, pos].argmax())
        return feat, order[feat, lo + pos], order[feat, lo + pos + 1]


class TreeStack:
    """The node arrays of several trees, concatenated for joint traversal.

    Child indices are shifted to the stacked positions, so one walk moves
    every tree's node for every row at once.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "roots")

    def __init__(self, trees):
        sizes = [t.feature.shape[0] for t in trees]
        self.roots = np.cumsum([0] + sizes, dtype=np.intp)[:-1]
        shift = np.repeat(self.roots, sizes)

        def cat(name, dtype):
            return np.concatenate([getattr(t, name) for t in trees]
                                  + [np.empty(0, dtype=dtype)])

        self.feature = cat("feature", np.intp)
        self.threshold = cat("threshold", float)
        self.value = cat("value", float)
        self.left = cat("left", np.intp) + shift
        self.right = cat("right", np.intp) + shift

    def values(self, X):
        """(trees, rows) matrix of the leaf value each tree gives each row."""
        n = X.shape[0]
        node = np.repeat(self.roots, n)
        row = np.tile(np.arange(n), self.roots.shape[0])
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            go_left = X[row[live], self.feature[at]] <= self.threshold[at]
            nxt = np.where(go_left, self.left[at], self.right[at])
            node[live] = nxt
            live = live[self.feature[nxt] >= 0]
        return self.value[node].reshape(self.roots.shape[0], n)


# ---------------------------------------------------------------------------
# MLP internals (exposed for gradient checking)

def mlp_forward(params, X):
    """Outputs and hidden activations on ``X``. The layers' products run
    in ``X``'s dtype; the output bias is added in float64."""
    dtype = X.dtype
    h = np.tanh(X @ params["W1"].astype(dtype, copy=False)
                + params["b1"].astype(dtype, copy=False))
    return (h @ params["W2"].astype(dtype, copy=False)
            + np.float64(params["b2"])), h


def mlp_loss_and_grads(params, X, y):
    """Mean squared error and its analytic gradients w.r.t. all weights.

    The loss and the output bias's gradient are float64; the other
    gradients have ``X``'s dtype.
    """
    yhat, h = mlp_forward(params, X)
    resid = yhat - y
    n = X.shape[0]
    loss = float(np.mean(resid ** 2))
    g = 2.0 * resid / n
    grads = {"b2": float(np.sum(g))}
    g = g.astype(X.dtype, copy=False)
    grads["W2"] = h.T @ g
    gh = np.outer(g, params["W2"].astype(X.dtype, copy=False))
    gz = gh * (1.0 - h ** 2)
    grads["W1"] = X.T @ gz
    grads["b1"] = gz.sum(axis=0)
    return loss, grads


def _train_mlp(X, y, hp, rng):
    n, dim = X.shape
    width = int(hp["hidden_width"])
    lr = float(hp["learning_rate"])
    epochs = int(hp["epochs"])
    params = {
        "W1": rng.normal(0.0, 1.0 / math.sqrt(dim), size=(dim, width)),
        "b1": np.zeros(width),
        # zero output weights start predictions at the target mean, which
        # makes constant-target training an exact fixed point
        "W2": np.zeros(width),
        "b2": float(np.mean(y)),
    }
    # an epoch's products run in float32; the weights, their updates and
    # the loss stay float64
    X = X.astype(np.float32)
    prev, loss = math.inf, 0.0
    # a step too long overflows; the check below reports it, once
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            loss, grads = mlp_loss_and_grads(params, X, y)
            if not math.isfinite(loss) or prev - loss < 1e-8:
                break
            prev = loss
            params["W1"] -= lr * grads["W1"]
            params["b1"] -= lr * grads["b1"]
            params["W2"] -= lr * grads["W2"]
            params["b2"] -= lr * grads["b2"]
    if not (math.isfinite(loss)
            and all(np.isfinite(v).all() for v in params.values())):
        raise ConfigurationError(
            f"mlp training diverged at learning_rate {lr!r}: the loss or "
            "the weights stopped being finite; lower the learning rate")
    return params


# ---------------------------------------------------------------------------
# Training / prediction

def _rows_to_matrix(rows):
    """Profile matrix, targets, dims and kinds of training rows.

    Raises ValidationError if a profile holds a NaN or an infinity, for
    every model kind: NaN compares false with every value, so it has no
    rank, and a split next to an infinity has no finite threshold.
    """
    rows = list(rows)
    if not rows:
        raise InsufficientDataError("cannot train on zero rows")
    first = rows[0].profile
    for r in rows:
        if r.profile.dims != first.dims or r.profile.kinds != first.kinds:
            raise ShapeError(
                f"inconsistent profiles: ({r.profile.dims}, "
                f"{r.profile.kinds}) vs ({first.dims}, {first.kinds})")
    X = np.array([r.profile.vector for r in rows], dtype=float)
    bad = ~np.isfinite(X)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValidationError(
            f"training profile {rows[row].profile.service_id}/"
            f"{rows[row].profile.task_id}/{rows[row].profile.context_id} "
            f"holds {X[row, col]} at position {col}", field="profile")
    y = np.array([r.target for r in rows], dtype=float)
    return X, y, first.dims, first.kinds


def _rng(seed, *salt):
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0x7FFFFFFF, *salt]))


def _grower(X, hp, seed, salt, bootstrap):
    """The tree-growing core of random forests and GBT on training matrix
    ``X`` (n, p): ``grow(t, target)`` fits tree ``t`` to ``target`` (n,).

    Tree ``t`` draws its rows from ``_rng(seed, salt, t)``: a bootstrap
    of ``round(sampling_ratio * n)`` rows, or a subsample without
    replacement of at most n. When ``k = round(hp["feature_ratio"] * p)``
    (at least 1) is below p, the same generator then draws k sorted columns,
    the tree is fit on those columns alone, and its split features are
    mapped back to columns of ``X``. At k == p nothing more is drawn.
    """
    n, p = X.shape
    size = max(1, round(float(hp["sampling_ratio"]) * n))
    if not bootstrap:
        size = min(n, size)
    k = max(1, round(float(hp["feature_ratio"]) * p))
    depth = int(hp["max_depth"])
    ranks = dense_ranks(X)
    columns = np.arange(p)

    def grow(t, target):
        rng = _rng(seed, salt, t)
        idx = rng.choice(n, size=size, replace=bootstrap)
        # at full width a slice takes every column without a copy
        cols = (np.sort(rng.choice(p, k, replace=False)) if k < p
                else slice(None))
        # X[idx][:, cols] is X[np.ix_(idx, cols)] at a quarter of its cost
        tree = RegressionTree().fit(X[idx][:, cols], target[idx], depth,
                                    ranks[cols][:, idx])
        split = tree.feature >= 0
        tree.feature[split] = columns[cols][tree.feature[split]]
        return tree

    return grow


def train(spec: ModelSpec, rows, seed: int) -> TrainedMetaModel:
    """Fit the requested meta-model; deterministic given (spec, rows, seed).
    ConfigurationError if an MLP's loss or weights stop being finite."""
    X, y, dims, kinds = _rows_to_matrix(rows)
    hp = spec.hyperparams
    if spec.kind in (ModelKind.KNN, ModelKind.MLP):
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        Xs = (X - mean) / std
    else:
        mean = np.zeros(X.shape[1])
        std = np.ones(X.shape[1])

    if spec.kind is ModelKind.KNN:
        params = {"X": Xs, "y": y, "k": int(hp["k"])}
    elif spec.kind is ModelKind.MLP:
        params = _train_mlp(Xs, y, hp, _rng(seed, 1))
    elif spec.kind is ModelKind.RANDOM_FOREST:
        grow = _grower(X, hp, seed, 2, bootstrap=True)
        trees = [grow(t, y) for t in range(int(hp["n_trees"]))]
        params = {"trees": trees}
    elif spec.kind is ModelKind.GBT:
        lr = float(hp["learning_rate"])
        base = float(np.mean(y))
        pred = np.full(X.shape[0], base)
        grow = _grower(X, hp, seed, 3, bootstrap=False)
        trees = []
        scales = []
        for t in range(int(hp["n_rounds"])):
            resid = y - pred
            tree = grow(t, resid)
            h = TreeStack([tree]).values(X)[0]
            hh = float(h @ h)
            if hh == 0.0:
                continue
            # least-squares step length keeps the training MSE
            # non-increasing even when the tree was fit on a subsample
            c = float(resid @ h) / hh
            scale = lr * c
            pred = pred + scale * h
            trees.append(tree)
            scales.append(scale)
        params = {"base": base, "trees": trees, "scales": scales}
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown model kind {spec.kind!r}")

    return TrainedMetaModel(spec=spec, seed=int(seed), dims=dims,
                            kinds=tuple(kinds), mean=mean, std=std,
                            params=params)


def predict_many(model: TrainedMetaModel, profiles) -> np.ndarray:
    """Vectorized prediction over a batch of profiles, clipped to [0, 1];
    no profiles give an empty array."""
    profiles = list(profiles)
    if not profiles:
        return np.empty(0)
    for pr in profiles:
        if pr.dims != model.dims or tuple(pr.kinds) != tuple(model.kinds):
            raise ShapeError(
                f"profile shape ({pr.dims}, {pr.kinds}) does not match "
                f"model ({model.dims}, {model.kinds})")
    X = np.array([pr.vector for pr in profiles], dtype=float)
    Xs = (X - model.mean) / model.std
    kind = model.spec.kind
    if kind is ModelKind.KNN:
        Xtr = model.params["X"]
        k = min(model.params["k"], Xtr.shape[0])
        d2 = ((Xs ** 2).sum(axis=1)[:, None]
              + (Xtr ** 2).sum(axis=1)[None, :] - 2.0 * Xs @ Xtr.T)
        # stable argsort breaks distance ties by training-row index
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out = model.params["y"][nearest].mean(axis=1)
    elif kind is ModelKind.MLP:
        out, _ = mlp_forward(model.params, Xs)
    elif kind is ModelKind.RANDOM_FOREST:
        out = np.mean(TreeStack(model.params["trees"]).values(X), axis=0)
    else:  # GBT
        out = _boost(model.params, X)[-1]
    return np.clip(out, 0.0, 1.0)


def _boost(params, X):
    """GBT predictions on X after each round, the base score first."""
    out = [np.full(X.shape[0], params["base"])]
    for h, scale in zip(TreeStack(params["trees"]).values(X),
                        params["scales"]):
        out.append(out[-1] + scale * h)
    return out


def gbt_training_mse_curve(model: TrainedMetaModel, rows):
    """Training MSE after each boosting round (round 0 = base score)."""
    if model.spec.kind is not ModelKind.GBT:
        raise ConfigurationError("MSE curve is defined for GBT models only")
    X, y, _, _ = _rows_to_matrix(rows)
    return [float(np.mean((y - pred) ** 2))
            for pred in _boost(model.params, X)]


# ---------------------------------------------------------------------------
# Grid search

def grid_search(kind, grid, rows, folds: int, seed: int) -> ModelSpec:
    """Full-Cartesian hyperparameter search by cross-validated MAE.

    Folds are grouped by task, so no task is in both a fold's train and
    test rows. Ties break by grid enumeration order (itertools.product
    over the grid's insertion order). A combination whose training
    diverges loses; ConfigurationError if every combination does.
    """
    from .evaluation import kfold_split  # local import avoids a cycle

    kind = ModelKind(kind)
    if not grid:
        raise ConfigurationError("grid must be non-empty")
    for name, values in grid.items():
        if not (isinstance(values, (list, tuple)) and values):
            raise ConfigurationError(f"grid axis {name!r} must be a "
                                     f"non-empty list, got {values!r}")
    rows = list(rows)
    names = list(grid.keys())
    splits = kfold_split([row.profile.task_id for row in rows], folds, seed)
    best_spec = None
    best_mae = math.inf
    for combo in itertools.product(*(grid[n] for n in names)):
        spec = ModelSpec(kind=kind, hyperparams=dict(zip(names, combo)))
        errors = []
        try:
            for train_idx, test_idx in splits:
                model = train(spec, [rows[i] for i in train_idx], seed)
                preds = predict_many(model,
                                     [rows[i].profile for i in test_idx])
                truth = np.array([rows[i].target for i in test_idx])
                errors.append(float(np.mean(np.abs(preds - truth))))
        except ConfigurationError:  # training diverged
            continue
        cv_mae = float(np.mean(errors))
        if cv_mae < best_mae:
            best_mae = cv_mae
            best_spec = spec
    if best_spec is None:
        raise ConfigurationError(f"no {kind.value} grid combination has a "
                                 "finite cross-validated MAE")
    return best_spec


# ---------------------------------------------------------------------------
# Serialization

def _params_to_obj(model: TrainedMetaModel):
    """``model.params`` as JSON values: each tree as its node arrays, each
    array as nested lists, and every other value as it is."""
    return {name: [t.to_obj() for t in value] if name == "trees"
            else value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in model.params.items()}


def _field(obj, key, kind):
    """``obj[key]`` if it is an instance of ``kind``; ModelFormatError else."""
    if not isinstance(obj, dict) or key not in obj:
        raise ModelFormatError(f"model file lacks {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ModelFormatError(f"model field {key!r} has type "
                               f"{type(value).__name__}")
    return value


def _float(obj, key):
    """``obj[key]``, a JSON number, as a float; ModelFormatError if it is
    NaN, an infinity or an integer past the float range."""
    try:
        value = float(_field(obj, key, (int, float)))
    except OverflowError as exc:
        raise ModelFormatError(f"model field {key!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ModelFormatError(f"model field {key!r} is {value}")
    return value


def _array(obj, key, shape, integer=False):
    """``obj[key]`` as a float (or integer) array of ``shape``, every
    entry finite.

    A None in ``shape`` matches any size along that axis.
    """
    try:
        arr = np.array(_field(obj, key, list))
    except ValueError as exc:  # ragged nesting
        raise ModelFormatError(f"model field {key!r}: {exc}") from exc
    kinds = "i" if integer else "if"
    if (arr.ndim != len(shape) or (arr.size and arr.dtype.kind not in kinds)
            or any(want not in (None, got)
                   for got, want in zip(arr.shape, shape))):
        raise ModelFormatError(
            f"model field {key!r} is not an array of "
            f"{'integers' if integer else 'numbers'} of shape {shape}")
    arr = arr.astype(np.intp if integer else float)
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"model field {key!r} holds "
                               f"{arr[~np.isfinite(arr)][0]}")
    return arr


def _params_from_obj(kind, obj, width):
    """Learned state of a ``kind`` model whose inputs have ``width``."""
    if kind is ModelKind.KNN:
        X = _array(obj, "X", (None, width))
        k = _field(obj, "k", int)
        if k < 1 or X.shape[0] == 0:
            raise ModelFormatError("knn model needs k >= 1 and a training row")
        return {"X": X, "y": _array(obj, "y", (X.shape[0],)), "k": k}
    if kind is ModelKind.MLP:
        W1 = _array(obj, "W1", (width, None))
        return {"W1": W1,
                "b1": _array(obj, "b1", (W1.shape[1],)),
                "W2": _array(obj, "W2", (W1.shape[1],)),
                "b2": _float(obj, "b2")}
    trees = [RegressionTree.from_obj(t, width)
             for t in _field(obj, "trees", list)]
    if kind is ModelKind.RANDOM_FOREST:
        # a forest averages its trees, so it needs one; a GBT model whose
        # every round fit nothing predicts its base
        if not trees:
            raise ModelFormatError("random forest model has no tree")
        return {"trees": trees}
    return {"base": _float(obj, "base"),
            "scales": _array(obj, "scales", (len(trees),)).tolist(),
            "trees": trees}


def save_model(model: TrainedMetaModel, path) -> None:
    """Write a versioned, self-describing JSON model file."""
    write_json(path, {
        "format": MODEL_FORMAT,
        "kind": model.spec.kind.value,
        "hyperparams": model.spec.hyperparams,
        "seed": model.seed,
        "dims": model.dims,
        "kinds": [k.value for k in model.kinds],
        "mean": model.mean.tolist(),
        "std": model.std.tolist(),
        "params": _params_to_obj(model),
    })


def load_model(path) -> TrainedMetaModel:
    """Read a ``save_model`` file; ModelFormatError if it is malformed."""
    obj = read_json(path, ModelFormatError, "corrupt model file")
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ModelFormatError(
            f"incompatible model format {obj.get('format') if isinstance(obj, dict) else obj!r}; "
            f"expected {MODEL_FORMAT}")
    try:
        kind = ModelKind(_field(obj, "kind", str))
        hyperparams = dict(_field(obj, "hyperparams", dict))
        if "feature_ratio" in DEFAULT_HYPERPARAMS[kind]:
            # a tree-model file written before feature_ratio existed was
            # grown on every column
            hyperparams.setdefault("feature_ratio", 1.0)
        spec = ModelSpec(kind=kind, hyperparams=hyperparams)
        kinds = tuple(FeatureKind(k) for k in _field(obj, "kinds", list))
    except (ValueError, TypeError, ConfigurationError) as exc:
        raise ModelFormatError(f"bad model description: {exc}") from exc
    dims = _field(obj, "dims", int)
    if dims < 1 or not kinds:
        raise ModelFormatError("model needs dims >= 1 and a feature kind")
    width = dims * len(kinds)
    std = _array(obj, "std", (width,))
    if np.any(std <= 0.0):  # predict_many divides by it
        raise ModelFormatError(f"model field 'std' holds {std.min()}, "
                               "not a number > 0")
    return TrainedMetaModel(
        spec=spec, seed=_field(obj, "seed", int), dims=dims, kinds=kinds,
        mean=_array(obj, "mean", (width,)), std=std,
        params=_params_from_obj(kind, _field(obj, "params", dict), width))
