"""Command-line driver: train, build, infer, eval, ablate, tune.

Every subcommand reads the data directory layout documented in the README
(label TSVs at both split profiles, two embedding files, co-occurrence
counts). Errors exit nonzero; BP non-convergence is reported in the output,
not treated as failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .builder import BuildConfig, FACTOR_KINDS
from .factorgraph import BPConfig, dump_graph
from .harness import (
    DataPaths,
    SWITCHES,
    TaskSpec,
    assemble_task_dataset,
    baseline_emb_maxent,
    baseline_majority,
    baseline_random,
    build_graph,
    prepare,
    run_ablation,
    run_task,
    tune_thresholds,
    write_run,
)
from .maxent import TrainConfig, save_model


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-dir", required=True, help="directory with the input files")
    parser.add_argument("--out-dir", default="out", help="where reports and artifacts go")
    parser.add_argument("--task", choices=("frames", "objects"), default="frames")
    parser.add_argument("--cross", choices=("5", "20"), default="5", help="cross-domain seed profile")
    parser.add_argument("--eval-split", choices=("dev", "test"), default="dev")
    parser.add_argument("--config", help="BuildConfig key=value file")
    parser.add_argument("--rng-seed", type=int, default=0)
    parser.add_argument("--bp-max-iterations", type=int, default=100)
    parser.add_argument("--bp-eps", type=float, default=1e-5)
    parser.add_argument("--bp-damping", type=float, default=0.5)


def _spec(args) -> TaskSpec:
    return TaskSpec(task=args.task, cross_seed_fraction=args.cross, eval_split=args.eval_split)


def _build_cfg(args) -> BuildConfig:
    if args.config:
        return BuildConfig.from_file(args.config)
    return BuildConfig()


def _bp_cfg(args) -> BPConfig:
    return BPConfig(
        max_iterations=args.bp_max_iterations,
        convergence_eps=args.bp_eps,
        damping=args.bp_damping,
    )


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(rng_seed=args.rng_seed)


def cmd_train(args) -> int:
    models = prepare(_spec(args), DataPaths.from_dir(args.data_dir), _train_cfg(args)).models
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (attribute, node_class), model in sorted(
        models.models.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        save_model(model, out / f"maxent_{attribute.value}_{node_class}.txt")
    print(f"wrote {len(models.models)} models to {out}")
    return 0


def cmd_build(args) -> int:
    cfg = _build_cfg(args)
    result = build_graph(prepare(_spec(args), DataPaths.from_dir(args.data_dir), _train_cfg(args)), cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.txt").write_text(dump_graph(result.graph), encoding="utf-8")
    (out / "build_report.tsv").write_text(result.report_tsv(), encoding="utf-8")
    print(result.report_tsv(), end="")
    return 0


def cmd_infer(args) -> int:
    result = run_task(_spec(args), _build_cfg(args), _bp_cfg(args), DataPaths.from_dir(args.data_dir), _train_cfg(args))
    write_run(result, args.out_dir)
    out = Path(args.out_dir)
    (out / "graph.txt").write_text(result.graph_dump(), encoding="utf-8")
    lines = ["node\tp_gt\tp_eq\tp_lt"]
    for node in sorted(result.beliefs, key=lambda n: n.sort_key):
        p = result.beliefs[node]
        lines.append(f"{node.key}\t{p[0]:.6f}\t{p[1]:.6f}\t{p[2]:.6f}")
    (out / "marginals.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"converged={result.bp.converged} iterations={result.bp.iterations}")
    return 0


def cmd_eval(args) -> int:
    paths = DataPaths.from_dir(args.data_dir)
    spec = _spec(args)
    if args.algorithm == "model":
        result = run_task(spec, _build_cfg(args), _bp_cfg(args), paths, _train_cfg(args))
        write_run(result, args.out_dir)
        report = result.report
        if not result.bp.converged:
            print("warning: BP did not converge; reporting final-iteration marginals", file=sys.stderr)
    else:
        if args.algorithm == "random":
            report = baseline_random(
                assemble_task_dataset(paths, spec), spec, rng_seed=args.rng_seed, resamples=args.resamples
            )
        elif args.algorithm == "majority":
            report = baseline_majority(assemble_task_dataset(paths, spec), spec)
        else:
            prepared = prepare(spec, paths, _train_cfg(args))
            report = baseline_emb_maxent(prepared.dataset, spec, prepared.models)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.tsv").write_text(report.to_tsv(), encoding="utf-8")
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    print(report.to_tsv(), end="")
    return 0


def cmd_ablate(args) -> int:
    result = run_ablation(
        _spec(args),
        _build_cfg(args),
        None if args.component == "none" else args.component,
        _bp_cfg(args),
        DataPaths.from_dir(args.data_dir),
        _train_cfg(args),
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation_full.tsv").write_text(result.full.to_tsv(), encoding="utf-8")
    (out / "ablation_toggled.tsv").write_text(result.ablated.to_tsv(), encoding="utf-8")
    summary = {
        "component": result.component,
        "full_overall": result.full.overall,
        "toggled_overall": result.ablated.overall,
        "delta": result.delta,
    }
    (out / "ablation.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"full={result.full.overall:.4f} toggled={result.ablated.overall:.4f} delta={result.delta:+.4f}")
    return 0


def _grid_from_file(path) -> list[BuildConfig]:
    overrides = json.loads(Path(path).read_text(encoding="utf-8"))
    grid = []
    for entry in overrides:
        if "enabled_factor_kinds" in entry:
            entry = dict(entry, enabled_factor_kinds=frozenset(entry["enabled_factor_kinds"]))
        grid.append(replace(BuildConfig(), **entry))
    return grid


def _default_grid() -> list[BuildConfig]:
    grid = [BuildConfig()]
    for kind in ("framesim", "attrsim"):
        grid.append(replace(BuildConfig(), enabled_factor_kinds=frozenset(set(FACTOR_KINDS) - {kind})))
    for threshold in (0.5, 0.7, 0.85):
        grid.append(replace(BuildConfig(), obj_sim_threshold=threshold))
    return grid


def cmd_tune(args) -> int:
    grid = _grid_from_file(args.grid) if args.grid else _default_grid()
    result = tune_thresholds(
        _spec(args), grid, DataPaths.from_dir(args.data_dir), _bp_cfg(args), _train_cfg(args)
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.best.to_file(out / "best_config.cfg")
    table = "".join(f"# dev_overall={score:.6f}\n{text}\n" for text, score in result.table)
    (out / "tune_table.txt").write_text(table, encoding="utf-8")
    print(f"best dev overall={result.best_score:.4f}; config written to {out / 'best_config.cfg'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="physrel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the per-attribute classifiers and save them")
    p_build = sub.add_parser("build", help="assemble the factor graph and dump it")
    p_infer = sub.add_parser("infer", help="build, run BP, and write marginals/predictions")
    p_eval = sub.add_parser("eval", help="score an algorithm on the evaluation split")
    p_ablate = sub.add_parser("ablate", help="compare the base config against one toggled switch")
    p_tune = sub.add_parser("tune", help="grid-search thresholds/factor sets on the dev split")

    for p in (p_train, p_build, p_infer, p_eval, p_ablate, p_tune):
        _add_common(p)
    p_eval.add_argument("--algorithm", choices=("model", "random", "majority", "emb-maxent"), default="model")
    p_eval.add_argument("--resamples", type=int, default=1, help="resample count for the random baseline")
    p_ablate.add_argument("--component", choices=SWITCHES + ("none",), required=True)
    p_tune.add_argument("--grid", help="JSON file with a list of BuildConfig overrides")

    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "build": cmd_build,
        "infer": cmd_infer,
        "eval": cmd_eval,
        "ablate": cmd_ablate,
        "tune": cmd_tune,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # surface as exit code, per the interface contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
