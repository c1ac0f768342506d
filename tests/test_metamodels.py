"""Profile-to-performance regressors: KNN, MLP, random forest, GBT."""

import copy
import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfest.errors import (ConfigurationError, ModelFormatError,
                            ValidationError)
from perfest.features import FeatureKind
from perfest.metamodels import (
    MIN_LEAF,
    ModelKind,
    ModelSpec,
    RegressionTree,
    TrainingRow,
    dense_ranks,
    gbt_training_mse_curve,
    grid_search,
    load_model,
    mlp_loss_and_grads,
    predict,
    predict_many,
    save_model,
    train,
)
from perfest.profile import FeatureProfile

DIMS = 6


def profile_from_vector(vec, ids=("svc00", "task00", "ctx00")):
    return FeatureProfile(
        service_id=ids[0], task_id=ids[1], context_id=ids[2],
        kinds=(FeatureKind.NLL,), dims=len(vec),
        vector=tuple(sorted(float(v) for v in vec)))


def random_rows(rng, n, dims=DIMS):
    rows = []
    for i in range(n):
        vec = rng.uniform(0.0, 5.0, size=dims)
        target = float(np.clip(vec.mean() / 5.0 + rng.normal(0, 0.02), 0, 1))
        prof = profile_from_vector(vec, ids=("svc%02d" % (i % 4),
                                             "task%02d" % (i % 5),
                                             "ctx%02d" % (i % 3)))
        rows.append(TrainingRow(profile=prof, target=target))
    return rows


def all_specs():
    return [
        ModelSpec(ModelKind.KNN, {"k": 3}),
        ModelSpec(ModelKind.MLP, {"hidden_width": 8, "epochs": 300}),
        ModelSpec(ModelKind.RANDOM_FOREST, {"max_depth": 4, "n_trees": 10}),
        ModelSpec(ModelKind.GBT, {"max_depth": 3, "n_rounds": 20}),
    ]


def test_one_nn_reproduces_training_targets_exactly():
    rng = np.random.default_rng(50)
    rows = random_rows(rng, 30)
    model = train(ModelSpec(ModelKind.KNN, {"k": 1}), rows, seed=0)
    for row in rows:
        assert predict(model, row.profile) == pytest.approx(row.target,
                                                            abs=1e-12)


def test_knn_three_equidistant_neighbors_average():
    # three training profiles at the corners of an equilateral layout, the
    # query at the centroid; k=3 must return the plain mean 0.4
    vecs = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    targets = [0.2, 0.4, 0.6]
    rows = [TrainingRow(profile=profile_from_vector(v), target=t)
            for v, t in zip(vecs, targets)]
    model = train(ModelSpec(ModelKind.KNN, {"k": 3}), rows, seed=0)
    query = profile_from_vector((2.0 / 3.0, 2.0 / 3.0))
    assert predict(model, query) == pytest.approx(0.4, abs=1e-9)


def test_random_forest_constant_target():
    rng = np.random.default_rng(51)
    rows = [TrainingRow(profile=r.profile, target=0.7)
            for r in random_rows(rng, 50)]
    model = train(ModelSpec(ModelKind.RANDOM_FOREST,
                            {"max_depth": 6, "n_trees": 15}), rows, seed=3)
    preds = predict_many(model, [r.profile for r in rows])
    assert np.allclose(preds, 0.7, atol=1e-9)


def test_gbt_zero_rounds_predicts_mean():
    rng = np.random.default_rng(52)
    rows = random_rows(rng, 40)
    mean = float(np.mean([r.target for r in rows]))
    model = train(ModelSpec(ModelKind.GBT, {"n_rounds": 0}), rows, seed=1)
    preds = predict_many(model, [r.profile for r in rows])
    assert np.allclose(preds, mean, atol=1e-12)


def test_gbt_training_mse_non_increasing():
    rng = np.random.default_rng(53)
    rows = random_rows(rng, 60)
    model = train(ModelSpec(ModelKind.GBT,
                            {"max_depth": 3, "n_rounds": 40,
                             "sampling_ratio": 0.7}), rows, seed=2)
    curve = gbt_training_mse_curve(model, rows)
    assert len(curve) == 41
    diffs = np.diff(curve)
    assert np.all(diffs <= 1e-12)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(54)
    step = 1e-5
    for trial in range(20):
        n = int(rng.integers(3, 8))
        dim = int(rng.integers(2, 5))
        width = int(rng.integers(2, 5))
        X = rng.normal(size=(n, dim))
        y = rng.uniform(size=n)
        params = {
            "W1": rng.normal(scale=0.5, size=(dim, width)),
            "b1": rng.normal(scale=0.1, size=width),
            "W2": rng.normal(scale=0.5, size=width),
            "b2": float(rng.normal(scale=0.1)),
        }
        _, grads = mlp_loss_and_grads(params, X, y)
        for name in ("W1", "b1", "W2", "b2"):
            g = np.atleast_1d(np.asarray(grads[name], dtype=float))
            flat = np.atleast_1d(np.asarray(params[name], dtype=float))
            num = np.zeros_like(flat, dtype=float)
            it = np.nditer(flat, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                up = copy.deepcopy(params)
                down = copy.deepcopy(params)
                if name == "b2":
                    up[name] = params[name] + step
                    down[name] = params[name] - step
                else:
                    up[name] = np.array(params[name], dtype=float)
                    down[name] = np.array(params[name], dtype=float)
                    up[name][idx] += step
                    down[name][idx] -= step
                lu, _ = mlp_loss_and_grads(up, X, y)
                ld, _ = mlp_loss_and_grads(down, X, y)
                num[idx] = (lu - ld) / (2 * step)
                it.iternext()
            scale = np.maximum(np.abs(num), 1e-3)
            assert np.all(np.abs(g.reshape(num.shape) - num) / scale < 1e-4)


def test_single_row_training_all_kinds():
    prof = profile_from_vector((0.5, 1.0, 1.5))
    rows = [TrainingRow(profile=prof, target=0.4)]
    for spec in all_specs():
        model = train(spec, rows, seed=0)
        assert predict(model, prof) == pytest.approx(0.4, abs=1e-6), spec.kind


def test_predictions_clipped_to_unit_interval():
    rng = np.random.default_rng(55)
    rows = random_rows(rng, 40)
    queries = [profile_from_vector(rng.uniform(-20, 20, size=DIMS))
               for _ in range(20)]
    for spec in all_specs():
        model = train(spec, rows, seed=0)
        preds = predict_many(model, queries)
        assert np.all(preds >= 0.0) and np.all(preds <= 1.0), spec.kind


def test_training_is_deterministic():
    rng = np.random.default_rng(56)
    rows = random_rows(rng, 40)
    queries = [r.profile for r in rows]
    for spec in all_specs():
        a = predict_many(train(spec, rows, seed=9), queries)
        b = predict_many(train(spec, rows, seed=9), queries)
        assert np.array_equal(a, b), spec.kind


def test_knn_standardization_makes_scale_irrelevant():
    # shrink the first coordinate by 1000x (keeping the profile sorted);
    # z-scoring must keep neighbor sets, hence predictions, identical
    rng = np.random.default_rng(57)
    base = rng.uniform(0, 1, size=(30, 2))
    rows1, rows2 = [], []
    for a, b in base:
        t = float(np.clip(a, 0, 1))
        rows1.append(TrainingRow(profile_from_vector((a, 10.0 + b)), t))
        rows2.append(TrainingRow(profile_from_vector((a / 1000.0, 10.0 + b)), t))
    spec = ModelSpec(ModelKind.KNN, {"k": 5})
    m1 = train(spec, rows1, seed=0)
    m2 = train(spec, rows2, seed=0)
    for a, b in rng.uniform(0, 1, size=(10, 2)):
        p1 = predict(m1, profile_from_vector((a, 10.0 + b)))
        p2 = predict(m2, profile_from_vector((a / 1000.0, 10.0 + b)))
        assert p1 == pytest.approx(p2, abs=1e-9)


def test_save_load_round_trip_all_kinds(tmp_path):
    rng = np.random.default_rng(58)
    rows = random_rows(rng, 40)
    queries = [profile_from_vector(rng.uniform(0, 5, size=DIMS))
               for _ in range(100)]
    for spec in all_specs():
        model = train(spec, rows, seed=4)
        path = tmp_path / (spec.kind.value + ".json")
        save_model(model, str(path))
        loaded = load_model(str(path))
        a = predict_many(model, queries)
        b = predict_many(loaded, queries)
        assert np.allclose(a, b, atol=1e-12), spec.kind


def test_truncated_model_file_rejected(tmp_path):
    rng = np.random.default_rng(59)
    rows = random_rows(rng, 10)
    model = train(ModelSpec(ModelKind.KNN, {"k": 1}), rows, seed=0)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_wrong_format_tag_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "something-else/9", "params": {}}')
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_empty_path_is_io_error():
    with pytest.raises(OSError):
        load_model("")


def test_model_spec_fills_defaults_and_rejects_unknown_kind():
    spec = ModelSpec(ModelKind.KNN)
    assert spec.hyperparams["k"] == 3
    rf = ModelSpec("random_forest")
    assert rf.hyperparams["n_trees"] == 260
    with pytest.raises(ValueError):
        ModelSpec("decision_stump")


def test_grid_search_rejects_degenerate_setups():
    rng = np.random.default_rng(63)
    rows = random_rows(rng, 8)
    with pytest.raises(ConfigurationError):
        grid_search(ModelKind.KNN, {}, rows, folds=2, seed=0)
    with pytest.raises(ConfigurationError):
        grid_search(ModelKind.KNN, {"k": []}, rows, folds=2, seed=0)
    with pytest.raises(ConfigurationError):
        grid_search(ModelKind.KNN, {"k": [1]}, rows, folds=1, seed=0)


def test_grid_search_single_point():
    rng = np.random.default_rng(60)
    rows = random_rows(rng, 20)
    spec = grid_search(ModelKind.KNN, {"k": [2]}, rows, folds=4, seed=0)
    assert spec.kind is ModelKind.KNN
    assert spec.hyperparams["k"] == 2


def test_grid_search_prefers_local_k_on_local_structure():
    # targets depend sharply on position; k=1 beats k=n
    rng = np.random.default_rng(61)
    rows = []
    for i in range(24):
        vec = rng.uniform(0, 1, size=3)
        rows.append(TrainingRow(
            profile_from_vector(vec, ids=("svc00", "task%02d" % i, "ctx00")),
            float(np.clip(vec.mean(), 0, 1))))
    spec = grid_search(ModelKind.KNN, {"k": [1, len(rows)]}, rows,
                       folds=4, seed=0)
    assert spec.hyperparams["k"] == 1


def test_grid_search_folds_never_share_a_task(monkeypatch):
    rng = np.random.default_rng(64)
    rows = random_rows(rng, 20)  # five tasks, four rows each
    folds = []

    def record_train(spec, train_rows, seed):
        folds.append({r.profile.task_id for r in train_rows})
        return train(spec, train_rows, seed)

    def record_predict(model, profiles):
        assert not folds[-1] & {p.task_id for p in profiles}
        return predict_many(model, profiles)

    monkeypatch.setattr("perfest.metamodels.train", record_train)
    monkeypatch.setattr("perfest.metamodels.predict_many", record_predict)
    grid_search(ModelKind.KNN, {"k": [1, 3]}, rows, folds=4, seed=0)
    assert len(folds) == 8


def test_grid_search_needs_a_task_per_fold():
    rng = np.random.default_rng(65)
    rows = random_rows(rng, 20)  # five tasks
    with pytest.raises(ConfigurationError, match="5 groups"):
        grid_search(ModelKind.KNN, {"k": [1]}, rows, folds=6, seed=0)


def test_grid_search_expresses_full_rf_grid():
    rng = np.random.default_rng(62)
    rows = random_rows(rng, 20)
    spec = grid_search(
        ModelKind.RANDOM_FOREST,
        {"max_depth": [10], "n_trees": [260], "sampling_ratio": [0.8]},
        rows, folds=4, seed=0)
    assert spec.hyperparams["max_depth"] == 10
    assert spec.hyperparams["n_trees"] == 260
    assert spec.hyperparams["sampling_ratio"] == 0.8


def test_target_outside_unit_interval_rejected():
    prof = profile_from_vector((1.0, 2.0))
    with pytest.raises(ValueError):
        TrainingRow(profile=prof, target=1.2)


# ---------------------------------------------------------------------------
# Exactness of the presorted tree learner and the stacked predictor against
# the learner as first written: it argsorts each node's rows afresh.

class SeedTree:
    """Reference CART learner that re-sorts every node's rows."""

    def __init__(self):
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []

    def _add_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def fit(self, X, y, max_depth):
        root = self._add_node()
        stack = [(root, np.arange(X.shape[0]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            yn = y[idx]
            self.value[node] = float(yn.mean())
            if depth >= max_depth or idx.shape[0] < 2 * MIN_LEAF:
                continue
            feat, thr = seed_best_split(X[idx], yn)
            if feat < 0:
                continue
            go_left = X[idx, feat] <= thr
            self.feature[node] = feat
            self.threshold[node] = thr
            li = self._add_node()
            ri = self._add_node()
            self.left[node] = li
            self.right[node] = ri
            stack.append((li, idx[go_left], depth + 1))
            stack.append((ri, idx[~go_left], depth + 1))
        return self

    def to_obj(self):
        return {"feature": list(self.feature),
                "threshold": list(self.threshold),
                "left": list(self.left), "right": list(self.right),
                "value": list(self.value)}


def seed_best_split(X, y):
    n = X.shape[0]
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    total = csum[-1, :]
    nl = np.arange(1, n, dtype=float)[:, None]
    nr = n - nl
    left_sum = csum[:-1, :]
    right_sum = total[None, :] - left_sum
    score = left_sum ** 2 / nl + right_sum ** 2 / nr
    valid = xs[:-1, :] < xs[1:, :]
    valid &= (nl >= MIN_LEAF) & (nr >= MIN_LEAF)
    score = np.where(valid, score, -np.inf)
    flat = int(np.argmax(score))
    if not np.isfinite(score.flat[flat]):
        return -1, 0.0
    row, col = divmod(flat, X.shape[1])
    thr = 0.5 * (xs[row, col] + xs[row + 1, col])
    return col, float(thr)


@st.composite
def tree_cases(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 4))
    if draw(st.booleans()):  # few distinct values: heavy ties
        values = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    else:
        values = st.floats(-1e3, 1e3, allow_subnormal=False)
    X = draw(hnp.arrays(float, (n, p), elements=values))
    y = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        y[:] = y[0]
    if draw(st.booleans()):  # bootstrap sample: duplicate rows
        idx = draw(hnp.arrays(np.intp, n, elements=st.integers(0, n - 1)))
        X, y = X[idx], y[idx]
    return X, y, draw(st.integers(0, 7))


@settings(max_examples=400, deadline=None)
@given(tree_cases())
@example((np.array([[1.0]]), np.array([0.3]), 5))
@example((np.arange(12.0).reshape(6, 2), np.linspace(0, 1, 6), 0))
@example((np.arange(12.0).reshape(6, 2), np.full(6, 0.4), 4))
@example((np.ones((8, 3)), np.linspace(0, 1, 8), 4))
def test_presorted_tree_fit_matches_per_node_argsort(case):
    X, y, depth = case
    tree = RegressionTree().fit(X, y, depth)
    assert tree.to_obj() == SeedTree().fit(X, y, depth).to_obj()


@st.composite
def shared_rank_cases(draw):
    """A full matrix, targets, a bootstrap or subsample of its rows and a
    depth: the inputs of one tree of a random forest or GBT model."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 4))
    values = draw(st.sampled_from([
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),           # heavy ties
        st.sampled_from([-0.0, 0.0, 1.0]),               # signed zeros
        st.sampled_from([-np.inf, -1.0, 0.0, 1.0, np.inf]),
        st.floats(-1e3, 1e3, allow_subnormal=False)]))
    X = draw(hnp.arrays(float, (n, p), elements=values))
    y = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        y[:] = y[0]
    if draw(st.booleans()):  # bootstrap: with replacement
        size = draw(st.integers(1, 2 * n))
        idx = draw(hnp.arrays(np.intp, size, elements=st.integers(0, n - 1)))
    else:  # subsample: without replacement
        idx = np.array(draw(st.permutations(range(n)))[
            :draw(st.integers(1, n))], dtype=np.intp)
    return X, y, idx, draw(st.integers(0, 7))


def tree_json(tree):
    """A tree's node arrays as text, so NaN values compare equal."""
    return json.dumps(tree.to_obj())


# A threshold between a finite value and +inf (or -inf and +inf) is +inf
# (or NaN) and sends every row to one side; both learners then give the
# empty child a NaN value, with numpy's warnings for an empty mean.
@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(shared_rank_cases())
@example((np.array([[1.0]]), np.array([0.3]), np.array([0]), 5))
@example((np.array([[1.0]]), np.array([0.3]), np.array([0, 0]), 5))
@example((np.array([[-0.0], [0.0], [-0.0], [0.0], [1.0], [0.0]]),
          np.linspace(0, 1, 6), np.arange(6), 3))
@example((np.array([[-np.inf], [1.0], [np.inf], [2.0], [np.inf], [-1.0]]),
          np.linspace(0, 1, 6), np.array([0, 1, 2, 3, 4, 5, 2, 0]), 4))
@example((np.arange(12.0).reshape(6, 2), np.full(6, 0.4), np.arange(6), 4))
@example((np.arange(12.0).reshape(6, 2), np.linspace(0, 1, 6),
          np.arange(6), 0))
def test_shared_rank_tree_fit_matches_per_node_argsort(case):
    X, y, idx, depth = case
    ranks = dense_ranks(X)
    tree = RegressionTree().fit(X[idx], y[idx], depth, ranks[:, idx])
    assert tree_json(tree) == tree_json(SeedTree().fit(X[idx], y[idx], depth))


@settings(max_examples=200, deadline=None)
@given(shared_rank_cases())
def test_dense_ranks_share_equal_values_and_rise_with_value(case):
    X = case[0]
    ranks = dense_ranks(X)
    assert ranks.shape == X.T.shape
    assert ranks.dtype == np.min_scalar_type(X.shape[0])
    for values, rank in zip(X.T, ranks):
        order = np.argsort(values, kind="stable")
        steps = np.diff(rank[order].astype(np.intp))
        assert rank[order[0]] == 0
        assert np.array_equal(steps, (values[order][1:] != values[order][:-1])
                              .astype(np.intp))


def tied_rows(seed, n):
    """Random rows whose profile values repeat across rows."""
    rng = np.random.default_rng(seed)
    return [TrainingRow(profile_from_vector(np.round(row.profile.vector, 1),
                                            ids=(row.profile.service_id,
                                                 row.profile.task_id,
                                                 row.profile.context_id)),
                        row.target)
            for row in random_rows(rng, n)]


def seed_fit(self, X, y, max_depth, ranks=None):
    """RegressionTree.fit by the per-node argsort learner."""
    grown = RegressionTree.from_obj(SeedTree().fit(X, y, max_depth).to_obj(),
                                    X.shape[1])
    for name in RegressionTree.__slots__:
        setattr(self, name, getattr(grown, name))
    return self


@pytest.mark.parametrize("spec", [
    ModelSpec(ModelKind.RANDOM_FOREST, {"max_depth": 6, "n_trees": 8}),
    ModelSpec(ModelKind.GBT, {"max_depth": 3, "n_rounds": 15,
                              "sampling_ratio": 0.7}),
], ids=["random_forest", "gbt"])
@pytest.mark.parametrize("seed", [0, 7])
def test_tree_model_files_match_per_tree_seed_learner(
        tmp_path, monkeypatch, spec, seed):
    rows = tied_rows(seed, 60)
    shared, per_tree = tmp_path / "shared.json", tmp_path / "per_tree.json"
    save_model(train(spec, rows, seed), str(shared))
    monkeypatch.setattr(RegressionTree, "fit", seed_fit)
    save_model(train(spec, rows, seed), str(per_tree))
    assert shared.read_bytes() == per_tree.read_bytes()


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.kind.value)
def test_nan_in_a_training_profile_is_a_validation_error(spec):
    rows = random_rows(np.random.default_rng(66), 12)
    vector = list(rows[5].profile.vector)
    vector[2] = float("nan")
    rows[5] = TrainingRow(profile_from_vector(vector), rows[5].target)
    with pytest.raises(ValidationError) as info:
        train(spec, rows, seed=0)
    assert info.value.field == "profile"


def per_tree_loop(model, profiles):
    """Predictions by walking each tree for each row, one at a time."""
    X = np.array([pr.vector for pr in profiles], dtype=float)
    trees = model.params["trees"]
    values = np.empty((len(trees), X.shape[0]))
    for t, tree in enumerate(trees):
        for r, x in enumerate(X):
            node = 0
            while tree.feature[node] >= 0:
                node = (tree.left[node]
                        if x[tree.feature[node]] <= tree.threshold[node]
                        else tree.right[node])
            values[t, r] = tree.value[node]
    if model.spec.kind is ModelKind.RANDOM_FOREST:
        out = np.mean(values, axis=0)
    else:
        out = np.full(X.shape[0], model.params["base"])
        for h, scale in zip(values, model.params["scales"]):
            out = out + scale * h
    return np.clip(out, 0.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 40),
       kind=st.sampled_from([ModelKind.RANDOM_FOREST, ModelKind.GBT]),
       size=st.integers(0, 8), depth=st.integers(0, 6),
       queries=st.integers(1, 12))
def test_stacked_tree_predictions_match_per_tree_loop(
        tmp_path_factory, seed, n, kind, size, depth, queries):
    rng = np.random.default_rng(seed)
    rows = random_rows(rng, n)
    hp = ({"n_trees": max(size, 1), "max_depth": depth}
          if kind is ModelKind.RANDOM_FOREST
          else {"n_rounds": size, "max_depth": depth})
    model = train(ModelSpec(kind, hp), rows, seed=seed)
    profiles = [r.profile for r in rows] + [
        profile_from_vector(rng.uniform(-1, 6, size=DIMS))
        for _ in range(queries)]
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    for m in (model, loaded):
        assert np.array_equal(predict_many(m, profiles),
                              per_tree_loop(m, profiles))
        one = profiles[-1]
        assert np.array_equal(predict_many(m, [one]),
                              per_tree_loop(m, [one]))
        assert predict(m, one) == per_tree_loop(m, [one])[0]


# ---------------------------------------------------------------------------
# Malformed model files

def saved_model_obj(tmp_path, spec):
    rows = random_rows(np.random.default_rng(64), 40)
    path = tmp_path / "model.json"
    save_model(train(spec, rows, seed=0), str(path))
    return json.loads(path.read_text())


RF_SPEC = ModelSpec(ModelKind.RANDOM_FOREST, {"max_depth": 3, "n_trees": 2})
GBT_SPEC = ModelSpec(ModelKind.GBT, {"max_depth": 3, "n_rounds": 3})
TREE_CORRUPTIONS = {
    "no dims": lambda o: o.pop("dims"),
    "no params": lambda o: o.pop("params"),
    "no tree values": lambda o: o["params"]["trees"][0].pop("value"),
    "dims as text": lambda o: o.update(dims="6"),
    "seed as float": lambda o: o.update(seed=1.5),
    "unknown feature kind": lambda o: o.update(kinds=["nope"]),
    "short mean": lambda o: o["mean"].pop(),
    "trees not a list": lambda o: o["params"].update(trees=5),
    "feature as text": lambda o: o["params"]["trees"][0].update(
        feature=["a"] * len(o["params"]["trees"][0]["feature"])),
    "feature as float": lambda o: o["params"]["trees"][0]["feature"]
    .__setitem__(0, 0.0),
    "unequal lengths": lambda o: o["params"]["trees"][0]["threshold"].pop(),
    "empty tree": lambda o: o["params"]["trees"][0].update(
        feature=[], threshold=[], left=[], right=[], value=[]),
    "child cycle": lambda o: o["params"]["trees"][0]["left"]
    .__setitem__(0, 0),
    "child out of range": lambda o: o["params"]["trees"][0]["right"]
    .__setitem__(0, 10 ** 6),
    "feature past width": lambda o: o["params"]["trees"][0]["feature"]
    .__setitem__(0, DIMS),
    "leaf with child": lambda o: o["params"]["trees"][0]["left"]
    .__setitem__(-1, 0),
}


@pytest.mark.parametrize("name", sorted(TREE_CORRUPTIONS))
def test_malformed_tree_model_rejected(tmp_path, name):
    obj = saved_model_obj(tmp_path, RF_SPEC)
    assert obj["params"]["trees"][0]["feature"][0] >= 0
    TREE_CORRUPTIONS[name](obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError):
        load_model(str(path))


@pytest.mark.parametrize("spec, corrupt", [
    (GBT_SPEC, lambda o: o["params"]["scales"].pop()),
    (GBT_SPEC, lambda o: o["params"].pop("base")),
    (ModelSpec(ModelKind.KNN), lambda o: o["params"].pop("k")),
    (ModelSpec(ModelKind.KNN), lambda o: o["params"]["X"][0].pop()),
    (ModelSpec(ModelKind.MLP, {"epochs": 5}),
     lambda o: o["params"].update(b1=[0.0])),
])
def test_malformed_model_params_rejected(tmp_path, spec, corrupt):
    obj = saved_model_obj(tmp_path, spec)
    corrupt(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_saved_model_file_is_unchanged_by_a_load(tmp_path):
    for spec in all_specs():
        model = train(spec, random_rows(np.random.default_rng(65), 30), 1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, str(a))
        save_model(load_model(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes(), spec.kind
