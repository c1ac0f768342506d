"""Command-line entry point wiring the library end to end.

Subcommands: synth, invoke, extract, select-features, train, estimate,
evaluate, select, recommend-finetune. Exit codes: 0 success, 1 domain
error, 2 usage error. All randomness flows from --seed; per-component
streams are derived by stable hashing, so every output is reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import applications as apps
from . import evaluation as ev
from . import metamodels as mm
# read_records, write_records and build_profile are not called here, but
# perfbench/tracing.py wraps them under this module's names too
from .core import (ContextSpec, RecordStore, append_records, parse_json,
                   read_json, read_records, write_json, write_records,
                   write_tasks)
from .errors import (ConfigurationError, InsufficientDataError,
                     PerfestError)
from .feature_selection import rank_combinations
from .features import FeatureKind, extract_task_features
from .profile import DEFAULT_DIMS, DEFAULT_KINDS, build_profile
from .services import (MarketplaceConfig, ServiceDescriptor, invoke,
                       synth_marketplace)


_KINDS = ",".join(k.value for k in DEFAULT_KINDS)


def _member(flag, enum, text):
    """The member of ``enum`` whose value is ``text``, given in ``flag``."""
    try:
        return enum(text)
    except ValueError as exc:
        raise ConfigurationError(
            f"{flag}: {text!r} is not one of "
            f"{', '.join(k.value for k in enum)}") from exc


def _parse_kinds(text):
    return tuple(_member("--kinds", FeatureKind, k.strip())
                 for k in text.split(","))


def _json_object(flag, text):
    """The JSON object given as the text of ``flag``."""
    obj = parse_json(text, ConfigurationError, f"{flag} is not JSON")
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{flag} must be a JSON object, got "
                                 f"{text!r}")
    return obj


def _config_defaults(command, path):
    """Defaults for subcommand parser ``command`` from JSON config ``path``.

    Keys name the subcommand's flags, spelled with dashes or underscores;
    keys of other subcommands are ignored. A string value is read as the
    flag's text, any other value as its JSON text, and goes through the
    flag's ``type``; JSON null keeps a flag whose default is None unset.
    """
    obj = read_json(path, ConfigurationError, f"config file {path}")
    if not isinstance(obj, dict):
        raise ConfigurationError("config file must hold a JSON object")
    config = {key.replace("-", "_"): value for key, value in obj.items()}
    defaults = {}
    for action in command._actions:
        if action.dest not in config or action.dest == "help":
            continue
        value = config[action.dest]
        if value is None and action.default is None:
            defaults[action.dest] = None
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            defaults[action.dest] = (action.type or str)(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"config value {action.dest}={value!r}: {exc}") from exc
    return defaults


def _prepared(store, kinds, d, unlabeled_n=None, seed=0):
    """One evaluation.PreparedSetting per setting of the store."""
    return [ev.prepare_setting(store.get(*key), kinds, d,
                               unlabeled_n=unlabeled_n, seed=seed)
            for key in store.keys()]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args):
    config = MarketplaceConfig(
        n_services=args.services, n_tasks=args.tasks,
        samples_per_task=args.samples, contexts_per_task=args.contexts,
        feature_fidelity=args.fidelity, seed=args.seed)
    services, tasks, store = synth_marketplace(config)
    os.makedirs(args.out, exist_ok=True)
    store.save(os.path.join(args.out, "records.jsonl"))
    write_tasks(tasks, os.path.join(args.out, "tasks.jsonl"))
    write_json(os.path.join(args.out, "services.json"),
               [dataclasses.asdict(s) for s in services], indent=2)
    print(f"wrote {len(store)} records for {len(services)} services x "
          f"{config.n_tasks} tasks x {config.contexts_per_task} contexts "
          f"to {args.out}")
    return 0


def _service_descriptors(path):
    """The ServiceDescriptors listed in JSON file ``path``."""
    entries = read_json(path, ConfigurationError, f"service config {path}")
    if not isinstance(entries, list):
        raise ConfigurationError("service config must hold a JSON list")
    descriptors = []
    for i, o in enumerate(entries):
        if not (isinstance(o, dict) and isinstance(o.get("service_id"), str)
                and isinstance(o.get("kind"), str)
                and isinstance(o.get("capabilities", {}), dict)
                and isinstance(o.get("config", {}), dict)):
            raise ConfigurationError(
                f"service config entry {i} must be an object with string "
                "service_id and kind, and object capabilities and config")
        descriptors.append(ServiceDescriptor(
            service_id=o["service_id"], kind=o["kind"],
            capabilities=o.get("capabilities", {}),
            config=o.get("config", {})))
    return descriptors


def _cmd_invoke(args):
    descriptors = _service_descriptors(args.service_config)
    by_id = {d.service_id: d for d in descriptors}
    if args.service not in by_id:
        raise ConfigurationError(f"unknown service {args.service!r}")
    # an HTTP service is sent the input with no in-context examples
    rec = invoke(by_id[args.service], args.input_text or "",
                 ContextSpec(args.context, ()), args.sample, args.task,
                 seed=args.seed)
    append_records([rec], args.out)
    print(f"appended 1 record to {args.out}")
    return 0


def _cmd_extract(args):
    store = RecordStore.from_file(args.records)
    kinds = _parse_kinds(args.kinds)
    lines = []
    for key in store.keys():
        table = extract_task_features(store.get(*key), kinds)
        lines.append(json.dumps(
            {"service_id": key[0], "task_id": key[1], "context_id": key[2],
             "features": {k.value: v for k, v in table.items()}},
            sort_keys=True) + "\n")
    with open(args.out, "w", encoding="utf-8") as f:
        f.writelines(lines)
    print(f"wrote features for {len(store.keys())} settings to {args.out}")
    return 0


def _cmd_select_features(args):
    store = RecordStore.from_file(args.records)
    kinds = tuple(FeatureKind)
    table = {k: [] for k in kinds}
    perf = []
    for key in store.keys():
        batch = store.get(*key)
        feats = extract_task_features(batch, kinds)
        for k in kinds:
            table[k].append(float(np.mean(feats[k])))
        perf.append(ev.task_performance(batch))
    scored, corr = rank_combinations(table, perf)

    print("correlation matrix (|Pearson r|):")
    print("".rjust(10) + "".join(l.rjust(10) for l in corr.labels))
    for i, la in enumerate(corr.labels):
        print(la.rjust(10) + "".join(f"{v:10.3f}" for v in corr.values[i]))
    print("\nranked combinations:")
    for subset, score in scored:
        names = "+".join(sorted(k.value for k in subset))
        print(f"  {score:8.4f}  {names}")
    if args.out:
        write_json(args.out, {
            "labels": list(corr.labels),
            "matrix": [list(r) for r in corr.values],
            "ranking": [["+".join(sorted(k.value for k in s)), sc]
                        for s, sc in scored],
            "best": sorted(k.value for k in scored[0][0]),
        }, indent=2)
    return 0


def _cmd_train(args):
    if args.folds < 2:
        raise ConfigurationError(f"--folds must be >= 2, got {args.folds}")
    store = RecordStore.from_file(args.records)
    kinds = _parse_kinds(args.kinds)
    kind = _member("--kind", mm.ModelKind, args.kind)
    rows = []
    for setting in _prepared(store, kinds, args.d):
        if setting.truth is None:
            raise ConfigurationError(f"setting {setting.key} lacks "
                                     "references; training needs labels")
        rows.append(mm.TrainingRow(profile=setting.profile,
                                   target=setting.truth))
    if args.grid:
        spec = mm.grid_search(kind, _json_object("--grid", args.grid),
                              rows, folds=args.folds, seed=args.seed)
    else:
        hp = (_json_object("--hyperparams", args.hyperparams)
              if args.hyperparams else {})
        spec = mm.ModelSpec(kind=kind, hyperparams=hp)
    model = mm.train(spec, rows, args.seed)
    mm.save_model(model, args.out)
    print(f"trained {spec.kind.value} on {len(rows)} settings -> {args.out}")
    return 0


def _candidates(args):
    model = mm.load_model(args.model)
    store = RecordStore.from_file(args.records)
    settings = _prepared(store, model.kinds, model.dims,
                         unlabeled_n=args.n, seed=args.seed)
    truths = {s.key: s.truth for s in settings}
    return apps.candidates_from_model(
        model, [s.profile for s in settings]), truths


def _cmd_estimate(args):
    cands, truths = _candidates(args)
    results = []
    for c in cands:
        key = (c.service_id, c.profile.task_id, c.context_id)
        truth, est = truths[key], c.estimate
        results.append({"service_id": key[0], "task_id": key[1],
                        "context_id": key[2], "estimate": est,
                        "true_performance": truth})
        line = f"{key[0]} {key[1]} {key[2]}  estimate={est:.4f}"
        if truth is not None:
            line += f"  true={truth:.4f}"
        print(line)
    if args.out:
        write_json(args.out, results, indent=2)
    return 0


def _cmd_evaluate(args):
    store = RecordStore.from_file(args.records)
    services = sorted({s for (s, _, _) in store.keys()})
    tasks = sorted({t for (_, t, _) in store.keys()})
    specs = tuple(mm.ModelSpec(kind=_member("--models", mm.ModelKind, k))
                  for k in args.models.split(",") if k)
    plan = ev.ExperimentPlan(
        services=services, tasks=tasks,
        contexts_per_task=args.contexts, unlabeled_n=args.n, d=args.d,
        feature_kinds=_parse_kinds(args.kinds), model_specs=specs,
        folds=args.folds, seed=args.seed)
    report = ev.run_experiment(plan, store)
    print(ev.render_table(report, services))
    if args.out:
        report.save(args.out)
        print(f"\nreport written to {args.out}")
    return 0


def _cmd_select(args):
    cands, truths = _candidates(args)
    if not cands:
        raise InsufficientDataError("no settings to select from")
    by_task = {}
    for c in sorted(cands, key=lambda c: (c.profile.task_id, -c.estimate)):
        by_task.setdefault(c.profile.task_id, []).append(c)
    best = {task: apps.select_setting(group)
            for task, group in by_task.items()}
    print("task       service    context    estimate     true")
    for task, group in by_task.items():
        for c in group:
            truth = truths[(c.service_id, task, c.context_id)]
            mark = " *" if c is best[task] else ""
            t = f"{truth:.4f}" if truth is not None else "-"
            print(f"{task:<10} {c.service_id:<10} {c.context_id:<10} "
                  f"{c.estimate:8.4f} {t:>8}{mark}")
    print()
    for task, c in best.items():
        print(f"selected: service={c.service_id} context={c.context_id} "
              f"task={task}")
    return 0


def _cmd_recommend_finetune(args):
    cands, truths = _candidates(args)
    by_service = {}
    for c in cands:
        by_service.setdefault(c.service_id, []).append(c.estimate)
    estimates = {sid: float(np.mean(v)) for sid, v in by_service.items()}
    ranking = apps.rank_finetune_targets(estimates)
    print("rank  service    estimate")
    for r, sid in enumerate(ranking, start=1):
        print(f"{r:<5} {sid:<10} {estimates[sid]:8.4f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="perfest",
        description="Label-free performance estimation for black-box "
                    "LLM services.")
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("synth", _cmd_synth, help="generate a synthetic marketplace")
    p.add_argument("--out", required=True)
    p.add_argument("--services", type=int, default=5)
    p.add_argument("--tasks", type=int, default=13)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--contexts", type=int, default=10)
    p.add_argument("--fidelity", type=float, default=0.9)

    p = add("invoke", _cmd_invoke, help="invoke one service on one sample")
    p.add_argument("--service-config", required=True)
    p.add_argument("--service", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--context", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--input-text", default=None)
    p.add_argument("--out", required=True)

    p = add("extract", _cmd_extract, help="per-setting feature lists")
    p.add_argument("--records", required=True)
    p.add_argument("--kinds", default=_KINDS)
    p.add_argument("--out", required=True)

    p = add("select-features", _cmd_select_features,
            help="correlations and best feature combination")
    p.add_argument("--records", required=True)
    p.add_argument("--out", default=None)

    p = add("train", _cmd_train, help="train a meta-model on labeled runs")
    p.add_argument("--records", required=True)
    p.add_argument("--kind", default="random_forest")
    p.add_argument("--kinds", default=_KINDS)
    p.add_argument("--d", type=int, default=DEFAULT_DIMS)
    p.add_argument("--hyperparams", default=None,
                   help="JSON object of hyperparameters")
    p.add_argument("--grid", default=None,
                   help="JSON object mapping hyperparameter -> values")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out", required=True)

    p = add("estimate", _cmd_estimate, help="estimate settings in a store")
    p.add_argument("--model", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="unlabeled samples per setting")
    p.add_argument("--out", default=None)

    p = add("evaluate", _cmd_evaluate,
            help="cross-validated comparison against baselines")
    p.add_argument("--records", required=True)
    p.add_argument("--models", default="random_forest")
    p.add_argument("--kinds", default=_KINDS)
    p.add_argument("--contexts", type=int, required=True)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--d", type=int, default=DEFAULT_DIMS)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out", default=None)

    p = add("select", _cmd_select,
            help="recommend the best (service, context) setting")
    p.add_argument("--model", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--n", type=int, default=None)

    p = add("recommend-finetune", _cmd_recommend_finetune,
            help="rank services by fine-tune potential")
    p.add_argument("--model", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--n", type=int, default=None)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            # config values become the subcommand's defaults, so any flag
            # given on the command line wins however it is spelled
            command = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction)
                           ).choices[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.fn(args)
    except (PerfestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
