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

Tree split search is exact and sorts once per tree: every feature is
argsorted at the root, and each split hands its children their rows by
a stable partition of the (features, rows) sorted-index matrix, as in
the pre-sorted column blocks of XGBoost's exact greedy algorithm (Chen &
Guestrin 2016). Each node then scans the same boundaries in the same
order as a per-node stable argsort would. A random forest or GBT model
stacks its trees' node arrays into one ``TreeStack`` when it is trained
or loaded, and one vectorized walk moves every tree's node for every
row at once.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ModelFormatError, ShapeError
from .features import FeatureKind
from .profile import FeatureProfile

MODEL_FORMAT = "perfest-metamodel/1"
MIN_LEAF = 2


class ModelKind(str, Enum):
    KNN = "knn"
    MLP = "mlp"
    RANDOM_FOREST = "random_forest"
    GBT = "gbt"


REQUIRED_HYPERPARAMS = {
    ModelKind.KNN: ("k",),
    ModelKind.MLP: ("hidden_width", "learning_rate", "epochs"),
    ModelKind.RANDOM_FOREST: ("max_depth", "n_trees", "sampling_ratio"),
    ModelKind.GBT: ("max_depth", "n_rounds", "learning_rate",
                    "sampling_ratio"),
}

DEFAULT_HYPERPARAMS = {
    ModelKind.KNN: {"k": 3},
    ModelKind.MLP: {"hidden_width": 64, "learning_rate": 1e-2,
                    "epochs": 2000},
    ModelKind.RANDOM_FOREST: {"max_depth": 10, "n_trees": 260,
                              "sampling_ratio": 0.8},
    ModelKind.GBT: {"max_depth": 4, "n_rounds": 200, "learning_rate": 0.1,
                    "sampling_ratio": 0.8},
}


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        merged = dict(DEFAULT_HYPERPARAMS[self.kind])
        merged.update(self.hyperparams)
        object.__setattr__(self, "hyperparams", merged)
        for name in REQUIRED_HYPERPARAMS[self.kind]:
            if name not in self.hyperparams:
                raise ConfigurationError(
                    f"{self.kind.value} requires hyperparameter {name!r}")


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

    def fit(self, X, y, max_depth):
        """Grow the tree on rows ``X`` (n, p) with targets ``y``.

        Every feature is argsorted once. A node holds its rows' positions
        in each feature's sorted order as a (p, m) matrix; a child takes
        its rows from its parent's matrix by a stable partition, which is
        the order a stable argsort of the child's rows would give.
        """
        n, p = X.shape
        XT = np.ascontiguousarray(X.T)
        feature, threshold, left, right = [-1], [0.0], [-1], [-1]
        value = [0.0]
        goes_left = np.zeros(n, dtype=bool)
        # (node, rows, parent's sorted matrix, this node's mask of it, depth)
        stack = [(0, np.arange(n), np.argsort(XT, axis=1, kind="stable"),
                  None, 0)]
        while stack:
            node, idx, order, keep, depth = stack.pop()
            value[node] = float(y[idx].mean())
            if depth >= max_depth or idx.shape[0] < 2 * MIN_LEAF:
                continue
            if keep is not None:
                order = order[keep].reshape(p, -1)
            feat, thr = _best_split(XT, y, order)
            if feat < 0:
                continue
            go_left = X[idx, feat] <= thr
            goes_left[idx] = go_left
            sorted_left = goes_left[order]
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
            stack.append((li, idx[go_left], order, sorted_left, depth + 1))
            stack.append((li + 1, idx[~go_left], order, ~sorted_left,
                          depth + 1))
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=float)
        return self

    def to_obj(self):
        return {"feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_obj(cls, obj, width):
        """Tree from ``to_obj`` output, checked for inputs of ``width``.

        Raises ModelFormatError unless every node array has the same
        length, features lie in [-1, width), leaves have no children and
        an internal node's children lie after it, so traversal ends.
        """
        tree = cls()
        tree.feature = _array(obj, "feature", (None,), integer=True)
        tree.threshold = _array(obj, "threshold", (None,))
        tree.left = _array(obj, "left", (None,), integer=True)
        tree.right = _array(obj, "right", (None,), integer=True)
        tree.value = _array(obj, "value", (None,))
        size = tree.feature.shape[0]
        if size == 0 or any(a.shape[0] != size for a in (
                tree.threshold, tree.left, tree.right, tree.value)):
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


def _best_split(XT, y, order):
    """Best (feature, threshold) by variance reduction; (-1, 0.0) if none.

    ``order`` (p, m) lists the node's rows in ascending order of each
    feature of ``XT`` (p, n). Scans every boundary between consecutive
    sorted values of every feature that leaves MIN_LEAF rows on each
    side; ties resolve to the smallest split position, then the lowest
    feature index.
    """
    m = order.shape[1]
    # splitting after sorted position j leaves j + 1 rows on the left
    lo, hi = MIN_LEAF - 1, m - MIN_LEAF
    xs = XT[np.arange(XT.shape[0])[:, None], order[:, lo:hi + 1]]
    csum = np.cumsum(y[order], axis=1)
    nl = np.arange(lo + 1, hi + 1, dtype=float)
    left_sum = csum[:, lo:hi]
    right_sum = csum[:, -1:] - left_sum
    # maximizing sum-of-squares of child means == minimizing total SSE
    score = np.square(left_sum)
    score /= nl
    np.square(right_sum, out=right_sum)
    right_sum /= m - nl
    score += right_sum
    score[~(xs[:, :-1] < xs[:, 1:])] = -np.inf
    best = score.max(axis=0)
    pos = int(np.argmax(best))
    if not np.isfinite(best[pos]):
        return -1, 0.0
    feat = int(np.argmax(score[:, pos]))
    thr = 0.5 * (xs[feat, pos] + xs[feat, pos + 1])
    return feat, float(thr)


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
    h = np.tanh(X @ params["W1"] + params["b1"])
    return h @ params["W2"] + params["b2"], h


def mlp_loss_and_grads(params, X, y):
    """Mean squared error and its analytic gradients w.r.t. all weights."""
    yhat, h = mlp_forward(params, X)
    resid = yhat - y
    n = X.shape[0]
    loss = float(np.mean(resid ** 2))
    g = 2.0 * resid / n
    grads = {
        "W2": h.T @ g,
        "b2": float(np.sum(g)),
    }
    gh = np.outer(g, params["W2"])
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
    prev = math.inf
    for _ in range(epochs):
        loss, grads = mlp_loss_and_grads(params, X, y)
        if prev - loss < 1e-8:
            break
        prev = loss
        params["W1"] -= lr * grads["W1"]
        params["b1"] -= lr * grads["b1"]
        params["W2"] -= lr * grads["W2"]
        params["b2"] -= lr * grads["b2"]
    return params


# ---------------------------------------------------------------------------
# Training / prediction

def _rows_to_matrix(rows):
    rows = list(rows)
    if not rows:
        raise ValueError("cannot train on zero rows")
    first = rows[0].profile
    for r in rows:
        if r.profile.dims != first.dims or r.profile.kinds != first.kinds:
            raise ShapeError(
                f"inconsistent profiles: ({r.profile.dims}, "
                f"{r.profile.kinds}) vs ({first.dims}, {first.kinds})")
    X = np.array([r.profile.vector for r in rows], dtype=float)
    y = np.array([r.target for r in rows], dtype=float)
    return X, y, first.dims, first.kinds


def _rng(seed, *salt):
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0x7FFFFFFF, *salt]))


def train(spec: ModelSpec, rows, seed: int) -> TrainedMetaModel:
    """Fit the requested meta-model; deterministic given (spec, rows, seed)."""
    X, y, dims, kinds = _rows_to_matrix(rows)
    hp = spec.hyperparams
    if spec.kind in (ModelKind.KNN, ModelKind.MLP):
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
    else:
        mean = np.zeros(X.shape[1])
        std = np.ones(X.shape[1])
    Xs = (X - mean) / std

    if spec.kind is ModelKind.KNN:
        params = {"X": Xs, "y": y, "k": int(hp["k"])}
    elif spec.kind is ModelKind.MLP:
        params = _train_mlp(Xs, y, hp, _rng(seed, 1))
    elif spec.kind is ModelKind.RANDOM_FOREST:
        n = X.shape[0]
        size = max(1, round(float(hp["sampling_ratio"]) * n))
        trees = []
        for t in range(int(hp["n_trees"])):
            rng = _rng(seed, 2, t)
            idx = rng.integers(0, n, size=size)
            trees.append(RegressionTree().fit(X[idx], y[idx],
                                              int(hp["max_depth"])))
        params = {"trees": trees, "stack": TreeStack(trees)}
    elif spec.kind is ModelKind.GBT:
        n = X.shape[0]
        lr = float(hp["learning_rate"])
        size = max(1, min(n, round(float(hp["sampling_ratio"]) * n)))
        base = float(np.mean(y))
        pred = np.full(n, base)
        trees = []
        scales = []
        for t in range(int(hp["n_rounds"])):
            rng = _rng(seed, 3, t)
            idx = rng.choice(n, size=size, replace=False)
            resid = y - pred
            tree = RegressionTree().fit(X[idx], resid[idx],
                                        int(hp["max_depth"]))
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
        params = {"base": base, "trees": trees, "scales": scales,
                  "stack": TreeStack(trees)}
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown model kind {spec.kind!r}")

    return TrainedMetaModel(spec=spec, seed=int(seed), dims=dims,
                            kinds=tuple(kinds), mean=mean, std=std,
                            params=params)


def predict_many(model: TrainedMetaModel, profiles) -> np.ndarray:
    """Vectorized prediction over a batch of profiles, clipped to [0, 1]."""
    profiles = list(profiles)
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
        out = np.mean(model.params["stack"].values(X), axis=0)
    else:  # GBT
        out = _boost(model.params, X)[-1]
    return np.clip(out, 0.0, 1.0)


def _boost(params, X):
    """GBT predictions on X after each round, the base score first."""
    out = [np.full(X.shape[0], params["base"])]
    for h, scale in zip(params["stack"].values(X), params["scales"]):
        out.append(out[-1] + scale * h)
    return out


def predict(model: TrainedMetaModel, profile: FeatureProfile) -> float:
    return float(predict_many(model, [profile])[0])


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
    over the grid's insertion order).
    """
    from .evaluation import kfold_split  # local import avoids a cycle

    kind = ModelKind(kind)
    if not grid:
        raise ConfigurationError("grid must be non-empty")
    for name, values in grid.items():
        if not list(values):
            raise ConfigurationError(f"grid axis {name!r} is empty")
    rows = list(rows)
    names = list(grid.keys())
    splits = kfold_split(len(rows), folds, seed,
                         groups=[row.profile.task_id for row in rows])
    best_spec = None
    best_mae = math.inf
    for combo in itertools.product(*(grid[n] for n in names)):
        spec = ModelSpec(kind=kind, hyperparams=dict(zip(names, combo)))
        errors = []
        for train_idx, test_idx in splits:
            model = train(spec, [rows[i] for i in train_idx], seed)
            preds = predict_many(model, [rows[i].profile for i in test_idx])
            truth = np.array([rows[i].target for i in test_idx])
            errors.append(float(np.mean(np.abs(preds - truth))))
        cv_mae = float(np.mean(errors))
        if cv_mae < best_mae:
            best_mae = cv_mae
            best_spec = spec
    return best_spec


# ---------------------------------------------------------------------------
# Serialization

def _params_to_obj(model: TrainedMetaModel):
    kind = model.spec.kind
    p = model.params
    if kind is ModelKind.KNN:
        return {"X": p["X"].tolist(), "y": p["y"].tolist(), "k": p["k"]}
    if kind is ModelKind.MLP:
        return {"W1": p["W1"].tolist(), "b1": p["b1"].tolist(),
                "W2": p["W2"].tolist(), "b2": p["b2"]}
    if kind is ModelKind.RANDOM_FOREST:
        return {"trees": [t.to_obj() for t in p["trees"]]}
    return {"base": p["base"], "scales": list(p["scales"]),
            "trees": [t.to_obj() for t in p["trees"]]}


def _field(obj, key, kind):
    """``obj[key]`` if it is an instance of ``kind``; ModelFormatError else."""
    if not isinstance(obj, dict) or key not in obj:
        raise ModelFormatError(f"model file lacks {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ModelFormatError(f"model field {key!r} has type "
                               f"{type(value).__name__}")
    return value


def _array(obj, key, shape, integer=False):
    """``obj[key]`` as a float (or integer) array of ``shape``.

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
    return arr.astype(np.intp if integer else float)


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
                "b2": float(_field(obj, "b2", (int, float)))}
    trees = [RegressionTree.from_obj(t, width)
             for t in _field(obj, "trees", list)]
    if kind is ModelKind.RANDOM_FOREST:
        return {"trees": trees, "stack": TreeStack(trees)}
    return {"base": float(_field(obj, "base", (int, float))),
            "scales": _array(obj, "scales", (len(trees),)).tolist(),
            "trees": trees, "stack": TreeStack(trees)}


def save_model(model: TrainedMetaModel, path) -> None:
    """Write a versioned, self-describing JSON model file."""
    if not path:
        raise OSError("empty model path")
    obj = {
        "format": MODEL_FORMAT,
        "kind": model.spec.kind.value,
        "hyperparams": model.spec.hyperparams,
        "seed": model.seed,
        "dims": model.dims,
        "kinds": [k.value for k in model.kinds],
        "mean": model.mean.tolist(),
        "std": model.std.tolist(),
        "params": _params_to_obj(model),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True)


def load_model(path) -> TrainedMetaModel:
    """Read a ``save_model`` file; ModelFormatError if it is malformed."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"corrupt model file: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ModelFormatError(
            f"incompatible model format {obj.get('format') if isinstance(obj, dict) else obj!r}; "
            f"expected {MODEL_FORMAT}")
    try:
        kind = ModelKind(_field(obj, "kind", str))
        spec = ModelSpec(kind=kind,
                         hyperparams=_field(obj, "hyperparams", dict))
        kinds = tuple(FeatureKind(k) for k in _field(obj, "kinds", list))
    except (ValueError, TypeError, ConfigurationError) as exc:
        raise ModelFormatError(f"bad model description: {exc}") from exc
    dims = _field(obj, "dims", int)
    if dims < 1 or not kinds:
        raise ModelFormatError("model needs dims >= 1 and a feature kind")
    width = dims * len(kinds)
    return TrainedMetaModel(
        spec=spec, seed=_field(obj, "seed", int), dims=dims, kinds=kinds,
        mean=_array(obj, "mean", (width,)),
        std=_array(obj, "std", (width,)),
        params=_params_from_obj(kind, _field(obj, "params", dict), width))
