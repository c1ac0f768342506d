"""Ground-truth scoring, error metrics, cross-validation, and the
experiment runner that pits meta-models against the baselines.

Performances and errors are fractions in [0, 1]; rendered tables scale
by 100 for readability.
"""

from __future__ import annotations

import contextlib
import itertools
import json
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
from .core import RecordStore, SettingBatch, write_json
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
                             ("d", self.d, 1), ("folds", self.folds, 2),
                             ("feature_kinds", len(self.feature_kinds), 1)):
            if not is_int(v, low):
                raise ConfigurationError(
                    f"plan field {name} must count at least {low}, got {v!r}")
        for name in ("services", "tasks"):  # a repeat would run twice
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigurationError(f"plan field {name} repeats an id")
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


def _write(f, items):
    """Items, each a tuple of float64 arrays, as one JSON line of their
    lengths and then their raw little-endian bytes, as perfest-columns/2
    stores columns."""
    f.write(json.dumps([list(map(len, item)) for item in items]).encode()
            + b"\n")
    for array in itertools.chain.from_iterable(items):
        f.write(np.asarray(array, "<f8").tobytes())
    f.flush()


def _read(f):
    """The items _write wrote, or [] if the writer stopped short."""
    try:
        lengths = json.loads(f.readline())
    except ValueError:
        return []
    sizes = list(itertools.chain(*lengths))
    flat = np.empty(sum(sizes), "<f8")
    if f.readinto(flat) != flat.nbytes:
        return []
    flat.flags.writeable = False  # so a profile holds its vector uncopied
    arrays = iter(np.split(flat, np.cumsum(sizes)[:-1]))
    return [tuple(itertools.islice(arrays, len(n))) for n in lengths]


@contextlib.contextmanager
def _halves(fork):
    """A map(run, items, share=False) returning [run(item) for item in
    items], each result a tuple of float64 arrays. When fork is true,
    os.fork exists, no other thread runs and two CPUs are usable, a child
    forked for the block runs the last half of the items and sends back
    their results (see _write), even when one raises; what it did not
    send runs here, so an error is the serial loop's. With share, this
    process then sends its half to the child, and both return the whole
    list. At the end of the block the child exits, and this process kills
    and reaps it. Nothing is pickled."""
    if not (fork and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) >= 2):
        yield lambda run, items, share=False: list(map(run, items))
        return
    up, down = os.pipe(), os.pipe()  # child -> parent, parent -> child
    pid = os.fork()
    send, receive = (up[1], down[0]) if pid == 0 else (down[1], up[0])
    for fd in {*up, *down} - {send, receive}:
        os.close(fd)

    def halves(run, items, share=False):
        own = len(items) - len(items) // 2
        if pid == 0:
            done = []
            try:
                for item in items[own:]:
                    done.append(run(item))
            finally:
                _write(send, done)
            return (_read(receive) if share else []) + done
        done = [run(item) for item in items[:own]]
        done += _read(receive)
        done += [run(item) for item in items[len(done):]]
        if share:  # the pipe is closed even when the child is gone
            with contextlib.suppress(BrokenPipeError), send:
                _write(send, done[:own])
        return done

    with open(send, "wb") as send, open(receive, "rb") as receive:
        try:
            yield halves
        finally:
            if pid == 0:
                os._exit(0)  # never return into the caller's code
            os.kill(pid, signal.SIGKILL)  # a no-op once it has exited
            os.waitpid(pid, 0)


def run_experiment(plan: ExperimentPlan, store: RecordStore) -> ExperimentReport:
    """Grouped cross-validated comparison of meta-models and baselines.

    For each fold, meta-models are trained on the train-task settings and
    applied to the test-task settings; baselines are computed from the
    train-fold labels (Sample^n uses the target task's own labeled
    samples, as defined). Fully deterministic under plan.seed. Every
    per-setting quantity is a list in the order of the settings, and a
    fold works on their positions.

    When the plan trains a meta-model and none is an MLP, a child forked
    before the settings are prepared (see _halves) prepares the last half
    of them and runs the last half of the folds; both processes calibrate
    ATC and estimate Sample^n for every setting. The report is the same,
    but tracers and spies in this process see only its own halves: a
    traced cv-experiment counts half of the features.extract_calls,
    profile.build_calls and evaluation.f1_calls of a serial run.
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

    atc_planned = "atc" in plan.baselines

    def prepare(key):
        """What the folds read of one setting, as float64 arrays: its
        profile vector and truth, its sorted confidences and sampled F1
        if ATC is planned, and every sample's F1 if Sample^n is."""
        p = prepare_setting(store.get(*key), plan.feature_kinds, plan.d,
                            plan.unlabeled_n, plan.seed)
        if p.truth is None:
            raise ValidationError(
                f"setting {key} has samples without a reference; cannot "
                "score", field="reference")
        return (p.profile.vector, np.array([p.truth]),
                p.confidences if atc_planned else (),
                p.f1[p.index] if atc_planned else (),
                p.f1 if any(b.startswith("sample_") for b in plan.baselines)
                else ())

    # an MLP's two BLAS threads in each process would oversubscribe two
    # CPUs (at 5x13x5x100 on 2 vCPUs an MLP-only experiment took 6.5 and
    # 26.3 s forked against 2.9 and 3.4 s serial)
    fork = bool(plan.model_specs) and mm.ModelKind.MLP not in {
        spec.kind for spec in plan.model_specs}
    with _halves(fork) as halves:
        vectors, truths, confidences, sampled_f1, f1 = zip(*halves(
            prepare, settings, share=True))
        truths = [float(t[0]) for t in truths]
        training = [mm.TrainingRow(
            FeatureProfile(*key, plan.feature_kinds, plan.d, v), t)
            for key, v, t in zip(settings, vectors, truths)]
        # an ATC threshold depends on its own setting alone; calibrate once
        atc = ([bl.atc_calibrate(c, f.tolist())
                for c, f in zip(confidences, sampled_f1)]
               if atc_planned else [])
        # a Sample^n estimate depends only on (service, task), whose
        # settings are a run of contexts_per_task positions; estimate once
        # per run
        k = plan.contexts_per_task
        sample_est = {  # Sample^n baseline -> its estimate per setting
            name: np.repeat([bl.sample_n_estimate(
                {settings[i]: f1[i] for i in range(at, at + k)},
                int(name.removeprefix("sample_")), plan.seed)
                for at in range(0, len(settings), k)], k).tolist()
            for name in plan.baselines if name.startswith("sample_")}
        specs = {_estimator_name(spec, n, plan.model_specs): spec
                 for n, spec in enumerate(plan.model_specs)}
        names = sorted({*specs, *plan.baselines})

        def run_fold(split):
            """Each estimator's estimates for one fold's test settings, in
            the order of names."""
            train_idx, test_idx = split
            estimates = {}  # estimator -> its estimate per test setting
            train_rows = [training[i] for i in train_idx]
            for name, spec in specs.items():
                model = mm.train(spec, train_rows, plan.seed)
                estimates[name] = mm.predict_many(
                    model, [training[i].profile for i in test_idx]).tolist()
            trained = {s: [] for s in plan.services}  # train positions
            for i in train_idx:
                trained[settings[i][0]].append(i)
            if "avg_train" in plan.baselines:
                avg = {s: bl.avg_train_estimate([truths[i] for i in idx])
                       for s, idx in trained.items()}
                estimates["avg_train"] = [avg[settings[i][0]]
                                          for i in test_idx]
            if atc:
                thresholds = {s: [atc[i] for i in idx]
                              for s, idx in trained.items()}
                estimates["atc"] = [
                    bl.atc_estimate(thresholds[settings[i][0]],
                                    confidences[i])
                    for i in test_idx]
            for name, est in sample_est.items():
                estimates[name] = [est[i] for i in test_idx]
            return tuple(np.array(estimates[name]) for name in names)

        splits = kfold_split([key[1] for key in settings], plan.folds,
                             plan.seed)
        folds = halves(run_fold, splits)
    report = ExperimentReport([
        ReportRow(*settings[i], name, est, truths[i], abs(est - truths[i]))
        for (_, test_idx), fold in zip(splits, folds)
        for name, ests in zip(names, fold)
        for i, est in zip(test_idx, map(float, ests))])
    for name in sorted({r.estimator for r in report.rows}):
        report.aggregates[name] = mae((r.estimate, r.true_performance)
                                      for r in report.rows
                                      if r.estimator == name)
    return report
