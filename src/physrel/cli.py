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
from typing import Iterable, Mapping

from .builder import BuildConfig, FACTOR_KINDS
from .core import TOKEN_OF_RELATION
from .factorgraph import BPConfig, graph_text
from .harness import (
    AccuracyReport,
    DataPaths,
    RunResult,
    SWITCHES,
    TaskSpec,
    assemble_task_dataset,
    baseline_emb_maxent,
    baseline_majority,
    baseline_random,
    build_graph,
    check_random_baseline,
    prepare,
    run_ablation,
    run_task,
    tune_thresholds,
)
from .maxent import TrainConfig, save_model


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-dir", required=True, help="directory with the input files")
    parser.add_argument("--out-dir", default="out", help="where reports and artifacts go")
    parser.add_argument("--task", choices=("frames", "objects"), default="frames")
    parser.add_argument("--cross", choices=("5", "20"), default="5", help="cross-domain seed profile")
    parser.add_argument("--eval-split", choices=("dev", "test"), default="dev")
    parser.add_argument("--rng-seed", type=int, default=0)


def _add_bp(parser: argparse.ArgumentParser) -> None:
    bp = BPConfig()
    parser.add_argument("--bp-max-iterations", type=int, default=bp.max_iterations)
    parser.add_argument("--bp-eps", type=float, default=bp.convergence_eps)
    parser.add_argument("--bp-damping", type=float, default=bp.damping)


def _spec(args) -> TaskSpec:
    return TaskSpec(task=args.task, cross_seed_fraction=args.cross, eval_split=args.eval_split)


def _build_cfg(args) -> BuildConfig:
    return BuildConfig.from_file(args.config) if args.config else BuildConfig()


def _bp_cfg(args) -> BPConfig:
    return BPConfig(max_iterations=args.bp_max_iterations, convergence_eps=args.bp_eps, damping=args.bp_damping)


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(rng_seed=args.rng_seed)


# Characters written per call, so no whole file is held encoded at once.
WRITE_SLICE = 1 << 20


def write_outputs(out_dir, files: Mapping[str, str | Iterable[str]]) -> Path:
    """Create ``out_dir`` and write each file name's text into it as UTF-8, ``WRITE_SLICE`` characters
    at a time. A text is a ``str`` or an iterable of the ``str`` pieces it joins, each written as it
    comes, so ``graph.txt`` is never held whole. Every file the package writes goes through here."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        with open(out / name, "w", encoding="utf-8") as f:
            for piece in [text] if isinstance(text, str) else text:
                for start in range(0, len(piece), WRITE_SLICE):
                    f.write(piece[start : start + WRITE_SLICE])
    return out


def _report_files(report: AccuracyReport) -> dict[str, str]:
    return {"report.tsv": report.to_tsv(), "report.json": report.to_json()}


def _run_files(result: RunResult) -> dict[str, str]:
    """The report files of a model run, its build report and its predictions."""
    lines = ["node\tgold\tpredicted\tp_gt\tp_eq\tp_lt"]
    for pred in result.predictions:
        p = pred.belief
        lines.append(
            f"{pred.node.key}\t{TOKEN_OF_RELATION[pred.gold]}\t{TOKEN_OF_RELATION[pred.predicted]}"
            f"\t{p[0]:.6f}\t{p[1]:.6f}\t{p[2]:.6f}"
        )
    return {
        **_report_files(result.report),
        "build_report.tsv": result.build.report_tsv(),
        "predictions.tsv": "\n".join(lines) + "\n",
    }


def cmd_train(args) -> int:
    models = prepare(_spec(args), DataPaths.from_dir(args.data_dir), _train_cfg(args)).models
    files = {f"maxent_{a.value}_{node_class}.txt": save_model(m) for (a, node_class), m in models.models.items()}
    out = write_outputs(args.out_dir, files)
    print(f"wrote {len(models.models)} models to {out}")
    return 0


def cmd_build(args) -> int:
    cfg = _build_cfg(args)
    result = build_graph(prepare(_spec(args), DataPaths.from_dir(args.data_dir), _train_cfg(args)), cfg)
    report = result.report_tsv()
    write_outputs(args.out_dir, {"graph.txt": graph_text(result.graph), "build_report.tsv": report})
    print(report, end="")
    return 0


def cmd_infer(args) -> int:
    result = run_task(_spec(args), _build_cfg(args), _bp_cfg(args), DataPaths.from_dir(args.data_dir), _train_cfg(args))
    lines = ["node\tp_gt\tp_eq\tp_lt"]
    for node, p in result.beliefs.items():
        lines.append(f"{node.key}\t{p[0]:.6f}\t{p[1]:.6f}\t{p[2]:.6f}")
    files = {**_run_files(result), "marginals.tsv": "\n".join(lines) + "\n"}
    files["timings.json"] = json.dumps(result.timings, indent=2) + "\n"
    write_outputs(args.out_dir, {**files, "graph.txt": graph_text(result.build.graph)})
    report = result.report
    print(f"converged={report.converged} iterations={report.iterations} residual={report.residual!r}")
    return 0


def cmd_eval(args) -> int:
    # Every flag is checked before any work, whichever algorithm runs.
    bp_cfg, train_cfg = _bp_cfg(args), _train_cfg(args)
    check_random_baseline(args.rng_seed, args.resamples)
    paths = DataPaths.from_dir(args.data_dir)
    spec = _spec(args)
    if args.algorithm == "model":
        result = run_task(spec, _build_cfg(args), bp_cfg, paths, train_cfg)
        report, files = result.report, _run_files(result)
        if not result.bp.converged:
            print(
                f"warning: BP did not converge (iterations={report.iterations} residual={report.residual!r});"
                " reporting final-iteration marginals",
                file=sys.stderr,
            )
    else:
        if args.algorithm == "random":
            report = baseline_random(assemble_task_dataset(paths, spec), spec, train_cfg.rng_seed, args.resamples)
        elif args.algorithm == "majority":
            report = baseline_majority(assemble_task_dataset(paths, spec), spec)
        else:
            prepared = prepare(spec, paths, train_cfg)
            report = baseline_emb_maxent(prepared.dataset, spec, prepared.models)
        files = _report_files(report)
    write_outputs(args.out_dir, files)
    print(report.to_tsv(), end="")
    return 0


def cmd_ablate(args) -> int:
    component = None if args.component == "none" else args.component
    paths = DataPaths.from_dir(args.data_dir)
    result = run_ablation(_spec(args), _build_cfg(args), component, _bp_cfg(args), paths, _train_cfg(args))
    summary = {
        "component": result.component,
        "full_overall": result.full.overall,
        "toggled_overall": result.ablated.overall,
        "delta": result.delta,
    }
    files = {
        "ablation_full.tsv": result.full.to_tsv(),
        "ablation_toggled.tsv": result.ablated.to_tsv(),
        "ablation.json": json.dumps(summary, sort_keys=True, indent=2) + "\n",
    }
    write_outputs(args.out_dir, files)
    print(f"full={result.full.overall:.4f} toggled={result.ablated.overall:.4f} delta={result.delta:+.4f}")
    return 0


def _grid_from_file(path) -> list[BuildConfig]:
    """The configs of a JSON list of ``{field: value}`` overrides. Each value
    is parsed as :meth:`BuildConfig.from_file` parses it: a list of strings
    as comma-joined factor kinds, any other value as its JSON text."""
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a JSON list of config overrides")
    grid = []
    for index, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise ValueError("expected a JSON object")
            grid.append(BuildConfig(**{key: BuildConfig.parse_field(key, _field_text(v)) for key, v in entry.items()}))
        except ValueError as exc:
            raise ValueError(f"{path}: entry {index}: {exc}") from None
    return grid


def _field_text(value) -> str:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return ",".join(value)
    return json.dumps(value)


def _default_grid() -> list[BuildConfig]:
    grid = [BuildConfig()]
    for kind in ("framesim", "attrsim"):
        grid.append(replace(BuildConfig(), enabled_factor_kinds=frozenset(set(FACTOR_KINDS) - {kind})))
    for threshold in (0.5, 0.7, 0.85):
        grid.append(replace(BuildConfig(), obj_sim_threshold=threshold))
    return grid


def cmd_tune(args) -> int:
    grid = _grid_from_file(args.grid) if args.grid else _default_grid()
    result = tune_thresholds(_spec(args), grid, DataPaths.from_dir(args.data_dir), _bp_cfg(args), _train_cfg(args))
    table = "".join(f"# dev_overall={score:.6f}\n{text}\n" for text, score in result.table)
    out = write_outputs(args.out_dir, {"best_config.cfg": result.best.to_text(), "tune_table.txt": table})
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
    for p in (p_build, p_infer, p_eval, p_ablate):
        p.add_argument("--config", help="BuildConfig key=value file")
    for p in (p_infer, p_eval, p_ablate, p_tune):
        _add_bp(p)
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
