"""Spans around perfest's public functions, recorded from outside the package.

A Tracer replaces each traced function with a wrapper that appends one
span [name, start, end, parent] to an in-memory list. perfest modules
import some functions by name (``from .profile import build_profile``),
so a function is replaced in every module that holds it, and methods are
replaced on their class. Per-record functions (``f1_score`` through
``per_sample_f1``, ``sequence_confidence``) are only counted, so tracing
stays cheap on the 260k-record workloads.

The per-layer metrics are computed from self time: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import perfest
from perfest import (baselines, cli, core, evaluation, features, metamodels,
                     profile, services)


def _kind_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return "metamodels.train." + metamodels.ModelKind(spec.kind).value


def _written_mb(counts, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["core.write_mb"] += os.path.getsize(path) / 1e6


# (span name, owners holding the function, attribute, counter update).
# A span name may be a function of the call's arguments.
TRACED = (
    ("services.synth_marketplace", (services, cli, perfest),
     "synth_marketplace",
     lambda c, a, k, out: c.update({"services.records_made": len(out[2])})),
    ("core.RecordStore.from_file", (core.RecordStore,), "from_file", None),
    ("core.read_records", (core, cli, perfest), "read_records",
     lambda c, a, k, out: c.update({"core.read_records": len(out)})),
    ("core.RecordStore.save", (core.RecordStore,), "save", None),
    ("core.write_records", (core, cli, perfest), "write_records",
     _written_mb),
    ("core.write_tasks", (core, cli), "write_tasks", _written_mb),
    ("evaluation.per_sample_f1", (evaluation,), "per_sample_f1",
     lambda c, a, k, out: c.update({"evaluation.f1_calls": len(out)})),
    ("evaluation.run_experiment", (evaluation, perfest), "run_experiment",
     None),
    ("features.extract_task_features", (features, profile, cli, perfest),
     "extract_task_features", None),
    ("profile.build_profile", (profile, evaluation, cli, perfest),
     "build_profile", None),
    ("baselines.atc_calibrate", (baselines, perfest), "atc_calibrate", None),
    ("baselines.atc_estimate", (baselines, perfest), "atc_estimate", None),
    ("metamodels.RegressionTree.fit", (metamodels.RegressionTree,), "fit",
     lambda c, a, k, out: c.update({"metamodels.tree_nodes":
                                    len(out.feature)})),
    (_kind_name, (metamodels, perfest), "train", None),
    ("metamodels.predict_many", (metamodels, perfest), "predict_many", None),
    ("metamodels.save_model", (metamodels, perfest), "save_model", None),
    ("metamodels.load_model", (metamodels, perfest), "load_model", None),
    ("cli.dispatch", (cli,), "dispatch", None),
    ("cli.synth", (cli,), "_cmd_synth", None),
    ("cli.train", (cli,), "_cmd_train", None),
    ("cli.estimate", (cli,), "_cmd_estimate", None),
)

COUNTED = (
    ("features.confidence_calls", (features, evaluation),
     "sequence_confidence"),
)

# per-layer metric -> (unit, table, names summed). Tables: "self" and
# "incl" are self and inclusive seconds per span name, "calls" counts
# spans, "counts" holds the counter updates above.
PER_LAYER = {
    "services.synth_s": ("s", "self", ("services.synth_marketplace",)),
    "services.records_made": ("count", "counts", ("services.records_made",)),
    "core.write_s": ("s", "self", ("core.RecordStore.save",
                                   "core.write_records", "core.write_tasks")),
    "core.write_mb": ("MB", "counts", ("core.write_mb",)),
    "core.read_s": ("s", "self", ("core.RecordStore.from_file",
                                  "core.read_records")),
    "core.read_records": ("count", "counts", ("core.read_records",)),
    "evaluation.f1_s": ("s", "self", ("evaluation.per_sample_f1",)),
    "evaluation.f1_calls": ("count", "counts", ("evaluation.f1_calls",)),
    "evaluation.experiment_self_s": ("s", "self",
                                     ("evaluation.run_experiment",)),
    "features.extract_s": ("s", "self", ("features.extract_task_features",)),
    "features.extract_calls": ("count", "calls",
                               ("features.extract_task_features",)),
    "features.confidence_calls": ("count", "counts",
                                  ("features.confidence_calls",)),
    "profile.build_self_s": ("s", "self", ("profile.build_profile",)),
    "profile.build_calls": ("count", "calls", ("profile.build_profile",)),
    "baselines.atc_s": ("s", "self", ("baselines.atc_calibrate",
                                      "baselines.atc_estimate")),
    "baselines.atc_calls": ("count", "calls", ("baselines.atc_calibrate",
                                               "baselines.atc_estimate")),
    "metamodels.tree_fit_s": ("s", "self", ("metamodels.RegressionTree.fit",)),
    "metamodels.tree_fits": ("count", "calls",
                             ("metamodels.RegressionTree.fit",)),
    "metamodels.tree_nodes": ("count", "counts", ("metamodels.tree_nodes",)),
    **{f"metamodels.train_s.{kind.value}": (
        "s", "incl", (f"metamodels.train.{kind.value}",))
       for kind in metamodels.ModelKind},
    "metamodels.predict_s": ("s", "self", ("metamodels.predict_many",)),
    "metamodels.save_s": ("s", "self", ("metamodels.save_model",)),
    "metamodels.load_s": ("s", "self", ("metamodels.load_model",)),
    "cli.synth_s": ("s", "incl", ("cli.synth",)),
    "cli.train_s": ("s", "incl", ("cli.train",)),
    "cli.estimate_s": ("s", "incl", ("cli.estimate",)),
    "cli.self_s": ("s", "self", ("cli.dispatch", "cli.synth", "cli.train",
                                 "cli.estimate")),
}


class Tracer:
    """Records spans and counts for one job process.

    ``spans`` holds [name, start, end, parent index] lists, with times in
    seconds from the tracer's creation; a parent of -1 marks a root span.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def install(self):
        for name, owners, attr, count in TRACED:
            self._replace(owners, attr,
                          lambda fn, name=name, count=count:
                          self._spanned(name, fn, count))
        for key, owners, attr in COUNTED:
            self._replace(owners, attr,
                          lambda fn, key=key: self._counted(key, fn))

    @staticmethod
    def _replace(owners, attr, make):
        wrapped = {}
        for owner in owners:
            fn = getattr(owner, attr)
            # one wrapper per function, however many modules import it
            ident = getattr(fn, "__func__", fn)
            if ident not in wrapped:
                wrapped[ident] = make(fn)
            setattr(owner, attr, wrapped[ident])

    def _spanned(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        origin = self.origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, clock() - origin, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock() - origin
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def tables(self):
        """Self seconds, inclusive seconds and calls per span name."""
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), Counter()
        for name, start, end, parent in self.spans:
            dur = end - start
            self_s[name] += dur
            incl_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        return {"self": self_s, "incl": incl_s, "calls": calls,
                "counts": self.counts}

    def layer_metrics(self):
        tables = self.tables()
        return {metric: float(sum(tables[table].get(n, 0) for n in names))
                for metric, (_, table, names) in PER_LAYER.items()}
