"""Command-line entry point wiring the library end to end.

Subcommands: synth, invoke, extract, select-features, train, estimate,
evaluate, select, recommend-finetune. Exit codes: 0 success, 1 domain
error, 2 usage error. All randomness flows from --seed; per-component
streams are derived by stable hashing, so every output is reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import applications as apps
from . import evaluation as ev
from . import metamodels as mm
# read_records, write_records and build_profile are not called here, but
# perfbench/tracing.py wraps them under this module's names too
from .core import RecordStore, read_records, write_records, write_tasks
from .errors import ConfigurationError, PerfestError
from .feature_selection import rank_combinations
from .features import FeatureKind, extract_task_features
from .profile import build_profile
from .services import (MarketplaceConfig, ServiceDescriptor, invoke,
                       marketplace_contexts, mock_task_index,
                       synth_marketplace)


def _parse_kinds(text):
    try:
        return tuple(FeatureKind(k.strip()) for k in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(
            f"--kinds {text!r}: {exc}; choose from "
            f"{', '.join(k.value for k in FeatureKind)}") from exc


def _json_object(flag, text):
    """The JSON object given as the text of ``flag``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{flag} is not JSON: {exc}") from exc
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
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"config file {path}: {exc}") from exc
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
    return [ev.prepare_setting(store.batch(*key), kinds, d,
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
    with open(os.path.join(args.out, "services.json"), "w",
              encoding="utf-8") as f:
        json.dump([{"service_id": s.service_id, "kind": s.kind,
                    "capabilities": s.capabilities, "config": s.config}
                   for s in services], f, sort_keys=True, indent=2)
    print(f"wrote {len(store)} records for {len(services)} services x "
          f"{config.n_tasks} tasks x {config.contexts_per_task} contexts "
          f"to {args.out}")
    return 0


def _cmd_invoke(args):
    with open(args.service_config, "r", encoding="utf-8") as f:
        descriptors = [ServiceDescriptor(
            service_id=o["service_id"], kind=o["kind"],
            capabilities=o.get("capabilities", {}),
            config=o.get("config", {})) for o in json.load(f)]
    by_id = {d.service_id: d for d in descriptors}
    if args.service not in by_id:
        raise ConfigurationError(f"unknown service {args.service!r}")
    desc = by_id[args.service]
    mock_config = None
    if desc.kind == "mock":
        cfg = desc.config
        mock_config = MarketplaceConfig(
            n_services=cfg.get("n_services", 5),
            n_tasks=cfg.get("n_tasks", 13),
            samples_per_task=cfg.get("samples_per_task", 400),
            contexts_per_task=cfg.get("contexts_per_task", 10),
            feature_fidelity=cfg.get("feature_fidelity", 0.9),
            seed=cfg.get("seed", args.seed))
    ctx = None
    if desc.kind == "mock":
        task_index = mock_task_index(mock_config, args.task)
        for c in marketplace_contexts(mock_config, task_index):
            if c.context_id == args.context:
                ctx = c
        if ctx is None:
            raise ConfigurationError(f"unknown context {args.context!r}")
    rec = invoke(desc, args.input_text or "", ctx, args.sample, args.task,
                 mock_config=mock_config)
    from .core import append_records
    append_records([rec], args.out)
    print(f"appended 1 record to {args.out}")
    return 0


def _cmd_extract(args):
    store = RecordStore.from_file(args.records)
    kinds = _parse_kinds(args.kinds)
    with open(args.out, "w", encoding="utf-8") as f:
        for key in store.keys():
            table = extract_task_features(store.batch(*key), kinds)
            obj = {"service_id": key[0], "task_id": key[1],
                   "context_id": key[2],
                   "features": {k.value: v for k, v in table.items()}}
            f.write(json.dumps(obj, sort_keys=True))
            f.write("\n")
    print(f"wrote features for {len(store.keys())} settings to {args.out}")
    return 0


def _cmd_select_features(args):
    store = RecordStore.from_file(args.records)
    kinds = tuple(FeatureKind)
    table = {k: [] for k in kinds}
    perf = []
    for key in store.keys():
        batch = store.batch(*key)
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
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({
                "labels": list(corr.labels),
                "matrix": [list(r) for r in corr.values],
                "ranking": [["+".join(sorted(k.value for k in s)), sc]
                            for s, sc in scored],
                "best": sorted(k.value for k in scored[0][0]),
            }, f, sort_keys=True, indent=2)
    return 0


def _cmd_train(args):
    store = RecordStore.from_file(args.records)
    kinds = _parse_kinds(args.kinds)
    rows = []
    for setting in _prepared(store, kinds, args.d):
        if setting.truth is None:
            raise ConfigurationError(f"setting {setting.key} lacks "
                                     "references; training needs labels")
        rows.append(mm.TrainingRow(profile=setting.profile,
                                   target=setting.truth))
    if args.grid:
        spec = mm.grid_search(args.kind, _json_object("--grid", args.grid),
                              rows, folds=args.folds, seed=args.seed)
    else:
        hp = (_json_object("--hyperparams", args.hyperparams)
              if args.hyperparams else {})
        spec = mm.ModelSpec(kind=mm.ModelKind(args.kind), hyperparams=hp)
    model = mm.train(spec, rows, args.seed)
    mm.save_model(model, args.out)
    print(f"trained {spec.kind.value} on {len(rows)} settings -> {args.out}")
    return 0


def _cmd_estimate(args):
    model = mm.load_model(args.model)
    store = RecordStore.from_file(args.records)
    results = []
    for setting in _prepared(store, model.kinds, model.dims,
                             unlabeled_n=args.n, seed=args.seed):
        key, truth = setting.key, setting.truth
        est = mm.predict(model, setting.profile)
        results.append({"service_id": key[0], "task_id": key[1],
                        "context_id": key[2], "estimate": est,
                        "true_performance": truth})
        line = f"{key[0]} {key[1]} {key[2]}  estimate={est:.4f}"
        if truth is not None:
            line += f"  true={truth:.4f}"
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, sort_keys=True, indent=2)
    return 0


def _cmd_evaluate(args):
    store = RecordStore.from_file(args.records)
    services = sorted({s for (s, _, _) in store.keys()})
    tasks = sorted({t for (_, t, _) in store.keys()})
    specs = tuple(mm.ModelSpec(kind=mm.ModelKind(k))
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


def _candidates(args):
    model = mm.load_model(args.model)
    store = RecordStore.from_file(args.records)
    settings = _prepared(store, model.kinds, model.dims,
                         unlabeled_n=args.n, seed=args.seed)
    truths = {s.key: s.truth for s in settings}
    return apps.candidates_from_model(
        model, [s.profile for s in settings]), truths


def _cmd_select(args):
    cands, truths = _candidates(args)
    best = apps.select_setting(cands)
    print("service    context    estimate     true")
    for c in sorted(cands, key=lambda c: -c.estimate):
        truth = truths.get((c.service_id, c.profile.task_id, c.context_id))
        mark = " *" if c is best else ""
        t = f"{truth:.4f}" if truth is not None else "-"
        print(f"{c.service_id:<10} {c.context_id:<10} "
              f"{c.estimate:8.4f} {t:>8}{mark}")
    print(f"\nselected: service={best.service_id} context={best.context_id}")
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
    p.add_argument("--kinds", default="nll,ppl")
    p.add_argument("--out", required=True)

    p = add("select-features", _cmd_select_features,
            help="correlations and best feature combination")
    p.add_argument("--records", required=True)
    p.add_argument("--out", default=None)

    p = add("train", _cmd_train, help="train a meta-model on labeled runs")
    p.add_argument("--records", required=True)
    p.add_argument("--kind", default="random_forest")
    p.add_argument("--kinds", default="nll,ppl")
    p.add_argument("--d", type=int, default=100)
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
    p.add_argument("--kinds", default="nll,ppl")
    p.add_argument("--contexts", type=int, required=True)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--d", type=int, default=100)
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
    except PerfestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
