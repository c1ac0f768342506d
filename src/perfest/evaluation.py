"""Ground-truth scoring, error metrics, cross-validation, and the
experiment runner that pits meta-models against the baselines.

Performances and errors are fractions in [0, 1]; rendered tables scale
by 100 for readability.
"""

from __future__ import annotations

import os
import re
import signal
import string
import threading
from dataclasses import astuple, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import baselines as bl
# extract_task_features is called through its module, where
# perfbench/tracing.py wraps it
from . import features as ft
from . import metamodels as mm
from .core import RecordStore, SettingBatch, parse_json, write_json
from .errors import (ConfigurationError, CoverageError,
                     InsufficientDataError, ValidationError, is_int)
from .features import FeatureKind, sequence_confidence
from .profile import (DEFAULT_DIMS, DEFAULT_KINDS, FeatureProfile,
                      build_profile)
from .seeding import derive_rng

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def _normalize_tokens(text: str):
    return text.lower().translate(_PUNCT_TABLE).split()


def f1_score(prediction: str, reference: str) -> float:
    """Token-overlap F1 with lowercase + punctuation-stripped whitespace
    tokens (bag-of-words overlap). Both empty -> 1.0; one empty -> 0.0."""
    pred = _normalize_tokens(prediction)
    ref = _normalize_tokens(reference)
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    counts = {}
    for tok in pred:
        counts[tok] = counts.get(tok, 0) + 1
    overlap = 0
    for tok in ref:
        if counts.get(tok, 0) > 0:
            counts[tok] -= 1
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


def per_sample_f1(batch):
    """Per-sample F1 of a SettingBatch against the reference, in sample
    order; every sample must be labeled. F1 is computed once per distinct
    (generated text, reference) pair.
    """
    texts = batch.generated_texts.tolist()
    refs = batch.references.tolist()
    if None in refs:
        raise ValidationError(
            f"record {batch.sample_ids[refs.index(None)]!r} has no "
            "reference; cannot score", field="reference")
    pairs = list(zip(texts, refs))
    table = {pair: f1_score(*pair) for pair in set(pairs)}
    return list(map(table.__getitem__, pairs))


def task_performance(batch) -> float:
    """Mean per-sample F1 of one setting's SettingBatch."""
    scores = per_sample_f1(batch)
    if not scores:
        raise InsufficientDataError("no records to score")
    return sum(scores) / len(scores)


def mae(pairs):
    """Mean and population standard deviation of |estimate - truth|."""
    pairs = list(pairs)
    if not pairs:
        raise InsufficientDataError("mae of zero pairs is undefined")
    errors = np.array([abs(e - t) for e, t in pairs])
    return float(errors.mean()), float(errors.std())


def kfold_split(groups, folds: int, seed: int):
    """Deterministic k-fold split that keeps every group whole.

    `groups` holds one group label per row. The distinct labels, in a
    seeded shuffle, are dealt into folds whose group counts differ by at
    most one, so no group straddles a fold boundary. Returns a list of
    (train_indices, test_indices) tuples.
    """
    if not is_int(folds, 2):
        raise ConfigurationError(f"folds must be an integer >= 2, got "
                                 f"{folds!r}")
    uniq = sorted(set(groups))
    if len(uniq) < folds:
        raise ConfigurationError(
            f"{len(uniq)} groups cannot fill {folds} folds")
    order = derive_rng(seed, "kfold").permutation(len(uniq))
    by_group = {}
    for i, g in enumerate(groups):
        by_group.setdefault(g, []).append(i)
    out = []
    all_idx = set(range(len(groups)))
    for part in np.array_split(order, folds):
        test = sorted(i for u in part for i in by_group[uniq[u]])
        train = sorted(all_idx.difference(test))
        out.append((train, test))
    return out


DEFAULT_BASELINES = ("avg_train", "atc", "sample_8", "sample_16", "sample_32")
_BASELINE = re.compile(r"avg_train|atc|sample_[1-9][0-9]*")


@dataclass(frozen=True)
class ExperimentPlan:
    services: tuple
    tasks: tuple
    contexts_per_task: int
    unlabeled_n: int = 400
    d: int = DEFAULT_DIMS
    feature_kinds: tuple = DEFAULT_KINDS
    model_specs: tuple = ()
    baselines: tuple = DEFAULT_BASELINES
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "feature_kinds",
                           tuple(FeatureKind(k) for k in self.feature_kinds))
        object.__setattr__(self, "model_specs", tuple(self.model_specs))
        object.__setattr__(self, "baselines", tuple(self.baselines))
        # kfold_split needs two folds
        for name, v, low in (("services", len(self.services), 1),
                             ("tasks", len(self.tasks), 1),
                             ("contexts_per_task", self.contexts_per_task, 1),
                             ("unlabeled_n", self.unlabeled_n, 1),
                             ("d", self.d, 1), ("folds", self.folds, 2)):
            if not is_int(v, low):
                raise ConfigurationError(
                    f"plan field {name} must count at least {low}, got {v!r}")
        if not (self.model_specs or self.baselines):
            raise ConfigurationError("plan names no meta-model or baseline")
        for name in self.baselines:
            if not _BASELINE.fullmatch(name):
                raise ConfigurationError(
                    f"unknown baseline {name!r}; choose avg_train, atc or "
                    "sample_<n> with n >= 1")


@dataclass
class ReportRow:
    service_id: str
    task_id: str
    context_id: str
    estimator: str
    estimate: float
    true_performance: float
    absolute_error: float


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)  # estimator -> (mae, sd)

    def to_obj(self):
        return {
            "rows": [list(astuple(r)) for r in self.rows],
            "aggregates": {k: list(v) for k, v in
                           sorted(self.aggregates.items())},
        }

    def save(self, path):
        write_json(path, self.to_obj(), end="\n")


def render_table(report: ExperimentReport, services) -> str:
    """Estimators x services summary (MAE +/- SD, in F1 percentage points)."""
    estimators = sorted({r.estimator for r in report.rows})
    by = {}
    for r in report.rows:
        by.setdefault((r.estimator, r.service_id), []).append(
            r.absolute_error)
    width = max(len(e) for e in estimators) + 2
    header = "estimator".ljust(width) + "".join(
        s.rjust(16) for s in list(services) + ["total"])
    lines = [header, "-" * len(header)]
    for est in estimators:
        cells = []
        for svc in list(services) + [None]:
            if svc is None:
                errs = [e for (es, sv), v in by.items() if es == est
                        for e in v]
            else:
                errs = by.get((est, svc), [])
            if errs:
                arr = np.array(errs)
                cells.append(f"{100 * arr.mean():.2f}±{100 * arr.std():.2f}"
                             .rjust(16))
            else:
                cells.append("-".rjust(16))
        lines.append(est.ljust(width) + "".join(cells))
    return "\n".join(lines)


@dataclass
class PreparedSetting:
    """One setting ready to estimate: the profile of its unlabeled subset
    and, when every sample has a reference, its labels."""

    profile: FeatureProfile
    sampled: SettingBatch     # the unlabeled subset, in sample order
    index: np.ndarray         # the subset's positions in the setting
    f1: Optional[np.ndarray]  # per-sample F1 of every sample
    truth: Optional[float]    # mean F1 over every sample
    nll: Optional[np.ndarray] = None  # the subset's NLL, when profiled

    @property
    def key(self) -> tuple:
        return self.sampled.key

    @cached_property
    def confidences(self) -> np.ndarray:
        """Sorted sequence confidences of the unlabeled subset."""
        return np.sort(sequence_confidence(self.sampled, nll_values=self.nll))

    @property
    def sampled_f1(self) -> list:
        return self.f1[self.index].tolist()


def prepare_setting(batch: SettingBatch, kinds, d, unlabeled_n=None,
                    seed=0) -> PreparedSetting:
    """Profile, truth and confidences of one setting.

    With unlabeled_n below the setting's size, the profile and the
    confidences come from a seeded random subset of that many samples;
    the truth always averages every sample. The confidences reuse the
    profile's NLL values when NLL is among the kinds.
    """
    n = len(batch)
    if not (unlabeled_n is None or is_int(unlabeled_n, 1)):
        raise ConfigurationError(f"unlabeled sample count must be an "
                                 f"integer >= 1, got {unlabeled_n!r}")
    if unlabeled_n is not None and unlabeled_n < n:
        rng = derive_rng(seed, "unlabeled", *batch.key)
        index = np.sort(rng.choice(n, size=unlabeled_n, replace=False))
        sampled = batch.take(index)
    else:
        index, sampled = np.arange(n), batch
    f1 = truth = None
    if batch.labeled:
        scores = per_sample_f1(batch)
        truth = sum(scores) / len(scores)
        f1 = np.array(scores)
    table = ft.extract_task_features(sampled, kinds)
    profile = build_profile(sampled, kinds, d, table=table)
    nll = table.get(FeatureKind.NLL)
    return PreparedSetting(profile=profile, sampled=sampled, index=index,
                           f1=f1, truth=truth,
                           nll=None if nll is None else np.array(nll))


def _estimator_name(spec, index, specs):
    same_kind = [sp for sp in specs if sp.kind == spec.kind]
    if len(same_kind) > 1:
        return f"{spec.kind.value}#{index}"
    return spec.kind.value


def _fold_rows(run_fold, splits):
    """[run_fold(*split) for split in splits]. Where os.fork exists, no
    other thread runs and two CPUs are usable, a forked child runs the
    last half of the folds and sends their rows back as JSON; a fold it
    did not send (it raised, or died) runs here, so an error is the
    serial loop's. The child is reaped before this returns or raises."""
    own = len(splits) - len(splits) // 2
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) >= 2):
        return [run_fold(*split) for split in splits]
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        sent = []
        try:
            try:
                for split in splits[own:]:
                    sent.append([astuple(row) for row in run_fold(*split)])
            finally:
                write_json(w, sent)
        finally:  # never return into the caller's code
            os._exit(0)
    os.close(w)
    with open(r, encoding="utf-8") as reader:
        try:
            done = [run_fold(*split) for split in splits[:own]]
            try:
                sent = parse_json(reader, ValueError, "fold rows")
            except ValueError:  # the child died while it wrote
                sent = []
        finally:
            os.kill(pid, signal.SIGKILL)  # a no-op once it has exited
            os.waitpid(pid, 0)
    done += [[ReportRow(*row) for row in fold] for fold in sent]
    return done + [run_fold(*split) for split in splits[len(done):]]


def run_experiment(plan: ExperimentPlan, store: RecordStore) -> ExperimentReport:
    """Grouped cross-validated comparison of meta-models and baselines.

    For each fold, meta-models are trained on the train-task settings and
    applied to the test-task settings; baselines are computed from the
    train-fold labels (Sample^n uses the target task's own labeled
    samples, as defined). Fully deterministic under plan.seed.

    Where it can (see _fold_rows), a forked child runs the last half of
    the folds. The report is the same, but tracers and spies in this
    process see only the folds run here.
    """
    contexts = {}
    missing = []
    for t in plan.tasks:
        ctxs = store.contexts_for_task(t)[:plan.contexts_per_task]
        if len(ctxs) < plan.contexts_per_task:
            missing.append(("*", t, f"<{plan.contexts_per_task} contexts>"))
        contexts[t] = ctxs
    settings = [(s, t, c) for s in plan.services for t in plan.tasks
                for c in contexts[t]]
    for key in settings:
        if store.get(*key) is None:
            missing.append(key)
    if missing:
        raise CoverageError(
            f"record store is missing {len(missing)} required "
            f"(service, task, context) groups", missing=missing)

    data = {key: prepare_setting(store.get(*key), plan.feature_kinds,
                                 plan.d, plan.unlabeled_n, plan.seed)
            for key in settings}
    for key, setting in data.items():
        if setting.truth is None:
            raise ValidationError(
                f"setting {key} has samples without a reference; cannot "
                "score", field="reference")

    # Sample^n estimates depend only on (service, task); precompute
    sample_ns = sorted(int(b.split("_", 1)[1]) for b in plan.baselines
                       if b.startswith("sample_"))
    sample_est = {
        (n, s, t): bl.sample_n_estimate(
            {(s, t, c): data[(s, t, c)].f1 for c in contexts[t]}, n,
            plan.seed)
        for n in sample_ns for s in plan.services for t in plan.tasks}
    # an ATC threshold depends on its own setting alone; calibrate once
    atc = {}
    if "atc" in plan.baselines:
        atc = {k: bl.atc_calibrate(d.confidences, d.sampled_f1)
               for k, d in data.items()}

    splits = kfold_split([t for (_, t, _) in settings], plan.folds,
                         plan.seed)

    def run_fold(train_idx, test_idx):
        """The report rows of one fold."""
        train_keys = [settings[i] for i in train_idx]
        test_keys = [settings[i] for i in test_idx]
        train_rows = [mm.TrainingRow(profile=data[k].profile,
                                     target=data[k].truth)
                      for k in train_keys]

        estimates = {}  # estimator -> {key: estimate}
        for i, spec in enumerate(plan.model_specs):
            name = _estimator_name(spec, i, plan.model_specs)
            model = mm.train(spec, train_rows, plan.seed)
            preds = mm.predict_many(model,
                                    [data[k].profile for k in test_keys])
            estimates[name] = dict(zip(test_keys, preds.tolist()))

        if "avg_train" in plan.baselines:
            per_service = {
                s: bl.avg_train_estimate(
                    [data[k].truth for k in train_keys if k[0] == s])
                for s in plan.services}
            estimates["avg_train"] = {k: per_service[k[0]]
                                      for k in test_keys}
        if atc:
            thresholds = {s: [] for s in plan.services}
            for k in train_keys:
                thresholds[k[0]].append(atc[k])
            estimates["atc"] = {
                k: bl.atc_estimate(thresholds[k[0]], data[k].confidences)
                for k in test_keys}
        for n in sample_ns:
            estimates[f"sample_{n}"] = {
                k: sample_est[(n, k[0], k[1])] for k in test_keys}

        rows = []
        for name in sorted(estimates):
            for key in test_keys:
                est = float(estimates[name][key])
                truth = data[key].truth
                rows.append(ReportRow(
                    service_id=key[0], task_id=key[1], context_id=key[2],
                    estimator=name, estimate=est, true_performance=truth,
                    absolute_error=abs(est - truth)))
        return rows

    report = ExperimentReport()
    for rows in _fold_rows(run_fold, splits):
        report.rows.extend(rows)
    for name in sorted({r.estimator for r in report.rows}):
        pairs = [(r.estimate, r.true_performance) for r in report.rows
                 if r.estimator == name]
        report.aggregates[name] = mae(pairs)
    return report
