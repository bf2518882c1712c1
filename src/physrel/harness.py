"""Experiment driver: tasks, baselines, ablations, threshold tuning.

Two prediction tasks share one pipeline. The frame task holds 5% of frames
as in-domain seed and either 5% or 20% of object pairs as cross-domain seed;
the object task is the inverse. The evaluation graph contains the seed items
plus the items of the split being scored; gold labels outside the seed split
are unreadable during training and graph construction (audit-guarded) and
are consulted only when scoring.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .builder import (
    Build,
    BuildConfig,
    FACTOR_KINDS,
    TrainedModels,
    build,
    train_models,
)
from .core import (
    ATTRIBUTES,
    Attribute,
    NodeRef,
    ObjectPairNode,
    RelationValue,
    TOKEN_OF_RELATION,
    flip_belief,
    ordered_pair,
)
from .factorgraph import BPConfig, BPResult, dump_graph, run_bp
from .lexstats import (
    CooccurrenceStats,
    Embeddings,
    KnowledgeDataset,
    combine,
    load_cooccurrence,
    load_dataset,
    load_embeddings,
)
from .maxent import TrainConfig

TASKS = ("frames", "objects")

VERB_EMBEDDING_DIM = 100
OBJECT_EMBEDDING_DIM = 50

# Ablation switches: the seven factor kinds plus the four class-level cuts.
CLASS_SWITCHES = ("frame_seeds", "object_seeds", "frame_embeddings", "object_embeddings")
SWITCHES = FACTOR_KINDS + CLASS_SWITCHES


@dataclass(frozen=True)
class TaskSpec:
    """One experimental condition. In-domain seed is always the 5% profile;
    the cross-domain seed fraction distinguishes the (a)/(b) model variants."""

    task: str = "frames"
    cross_seed_fraction: str = "5"
    eval_split: str = "dev"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.cross_seed_fraction not in ("5", "20"):
            raise ValueError("cross_seed_fraction must be '5' or '20'")
        if self.eval_split not in ("dev", "test"):
            raise ValueError("eval_split must be 'dev' or 'test'")

    def to_text(self) -> str:
        return (
            f"task={self.task}\ncross={self.cross_seed_fraction}\n"
            f"eval={self.eval_split}\n"
        )


@dataclass(frozen=True)
class DataPaths:
    frames_5: Path
    frames_20: Path
    pairs_5: Path
    pairs_20: Path
    verb_embeddings: Path
    object_embeddings: Path
    cooccurrence: Path

    @classmethod
    def from_dir(cls, directory) -> "DataPaths":
        d = Path(directory)
        return cls(
            frames_5=d / "frames_5.tsv",
            frames_20=d / "frames_20.tsv",
            pairs_5=d / "pairs_5.tsv",
            pairs_20=d / "pairs_20.tsv",
            verb_embeddings=d / "embeddings_verbs.txt",
            object_embeddings=d / "embeddings_objects.txt",
            cooccurrence=d / "cooccurrence.tsv",
        )


def load_world(paths: DataPaths) -> tuple[Embeddings, CooccurrenceStats]:
    emb = Embeddings(
        verbs=load_embeddings(paths.verb_embeddings, VERB_EMBEDDING_DIM),
        objects=load_embeddings(paths.object_embeddings, OBJECT_EMBEDDING_DIM),
    )
    return emb, load_cooccurrence(paths.cooccurrence)


def assemble_task_dataset(paths: DataPaths, spec: TaskSpec) -> KnowledgeDataset:
    """In-domain data at the 5% profile, cross-domain at the spec's profile."""
    ds5 = load_dataset(paths.frames_5, paths.pairs_5, "5/45/50")
    if spec.cross_seed_fraction == "5":
        return ds5
    ds20 = load_dataset(paths.frames_20, paths.pairs_20, "20/30/50")
    if spec.task == "frames":
        return combine(ds5, ds20)
    return combine(ds20, ds5)


# -- decisions and reports --


def decide(marginal) -> RelationValue:
    """Argmax relation; ties break toward the canonical index order (GT first)."""
    return RelationValue(int(np.argmax(np.asarray(marginal))))


@dataclass
class AccuracyReport:
    algorithm: str
    task: str
    eval_split: str
    per_attribute: dict[str, float]
    counts: dict[str, int]
    overall: float
    micro: float
    config_fingerprint: str
    converged: Optional[bool] = None
    iterations: Optional[int] = None

    def to_tsv(self) -> str:
        lines = [
            f"algorithm\t{self.algorithm}",
            f"task\t{self.task}",
            f"eval_split\t{self.eval_split}",
            f"converged\t{self.converged}",
            f"iterations\t{self.iterations}",
            f"config_fingerprint\t{self.config_fingerprint}",
        ]
        for attr in sorted(self.per_attribute):
            lines.append(f"accuracy:{attr}\t{self.per_attribute[attr]:.6f}\t{self.counts[attr]}")
        lines.append(f"overall\t{self.overall:.6f}")
        lines.append(f"micro\t{self.micro:.6f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "algorithm": self.algorithm,
            "task": self.task,
            "eval_split": self.eval_split,
            "per_attribute": self.per_attribute,
            "counts": self.counts,
            "overall": self.overall,
            "micro": self.micro,
            "converged": self.converged,
            "iterations": self.iterations,
            "config_fingerprint": self.config_fingerprint,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _score(
    golds: dict[str, list[RelationValue]],
    preds: dict[str, list[RelationValue]],
    *,
    algorithm: str,
    spec: TaskSpec,
    fingerprint: str,
    converged: Optional[bool] = None,
    iterations: Optional[int] = None,
) -> AccuracyReport:
    per_attribute: dict[str, float] = {}
    counts: dict[str, int] = {}
    total = correct = 0
    for attr in sorted(golds):
        g, p = golds[attr], preds[attr]
        counts[attr] = len(g)
        if not g:
            continue
        hits = sum(1 for gi, pi in zip(g, p) if gi == pi)
        per_attribute[attr] = hits / len(g)
        total += len(g)
        correct += hits
    overall = float(np.mean([per_attribute[a] for a in per_attribute])) if per_attribute else 0.0
    micro = correct / total if total else 0.0
    return AccuracyReport(
        algorithm=algorithm,
        task=spec.task,
        eval_split=spec.eval_split,
        per_attribute=per_attribute,
        counts=counts,
        overall=overall,
        micro=micro,
        config_fingerprint=fingerprint,
        converged=converged,
        iterations=iterations,
    )


def _eval_items(dataset: KnowledgeDataset, spec: TaskSpec):
    if spec.task == "frames":
        return dataset.frames_in(spec.eval_split)
    return dataset.pairs_in(spec.eval_split)


def _gold_by_attribute(dataset: KnowledgeDataset, items) -> dict[str, list[RelationValue]]:
    golds: dict[str, list[RelationValue]] = {a.value: [] for a in ATTRIBUTES}
    for attribute in ATTRIBUTES:
        for it in items:
            if dataset.has_label(it, attribute):
                golds[attribute.value].append(dataset.gold(it, attribute))
    return golds


def _fingerprint(*chunks: str) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


# -- baselines --


def baseline_random(
    dataset: KnowledgeDataset,
    spec: TaskSpec,
    rng_seed: int = 0,
    resamples: int = 1,
) -> AccuracyReport:
    """Uniform choice among the three values; expected accuracy 1/3."""
    items = _eval_items(dataset, spec)
    golds = _gold_by_attribute(dataset, items)
    rng = np.random.default_rng(rng_seed)
    per_attr_preds: dict[str, list[RelationValue]] = {}
    accs: dict[str, float] = {}
    counts: dict[str, int] = {}
    for attr, g in golds.items():
        counts[attr] = len(g)
        if not g:
            continue
        g_arr = np.array([int(v) for v in g])
        draws = rng.integers(0, 3, size=(resamples, len(g)))
        accs[attr] = float((draws == g_arr).mean())
    overall = float(np.mean(list(accs.values()))) if accs else 0.0
    micro_num = sum(accs[a] * counts[a] for a in accs)
    micro_den = sum(counts[a] for a in accs)
    return AccuracyReport(
        algorithm="random",
        task=spec.task,
        eval_split=spec.eval_split,
        per_attribute=accs,
        counts=counts,
        overall=overall,
        micro=micro_num / micro_den if micro_den else 0.0,
        config_fingerprint=_fingerprint(spec.to_text(), f"seed={rng_seed}", f"resamples={resamples}"),
    )


def baseline_majority(dataset: KnowledgeDataset, spec: TaskSpec) -> AccuracyReport:
    """Predict each attribute's most frequent in-domain seed label everywhere."""
    seeds = dataset.frames_in("seed") if spec.task == "frames" else dataset.pairs_in("seed")
    majority: dict[str, RelationValue] = {}
    with dataset.audit_label_access({"seed"}):
        for attribute in ATTRIBUTES:
            tallies = [0, 0, 0]
            for it in seeds:
                if dataset.has_label(it, attribute):
                    tallies[int(dataset.gold(it, attribute))] += 1
            if sum(tallies) > 0:
                majority[attribute.value] = RelationValue(int(np.argmax(tallies)))
    items = _eval_items(dataset, spec)
    golds = _gold_by_attribute(dataset, items)
    for attr, g in golds.items():
        if g and attr not in majority:
            raise ValueError(f"empty seed split for attribute {attr}")
    preds = {attr: [majority[attr]] * len(g) if g else [] for attr, g in golds.items()}
    return _score(
        golds,
        preds,
        algorithm="majority",
        spec=spec,
        fingerprint=_fingerprint(spec.to_text(), "majority"),
    )


def baseline_emb_maxent(
    dataset: KnowledgeDataset,
    spec: TaskSpec,
    models: TrainedModels,
) -> AccuracyReport:
    """Classifier-only predictions for every evaluation item."""
    items = _eval_items(dataset, spec)
    golds = _gold_by_attribute(dataset, items)
    preds: dict[str, list[RelationValue]] = {a.value: [] for a in ATTRIBUTES}
    for attribute in ATTRIBUTES:
        for it in items:
            if not dataset.has_label(it, attribute):
                continue
            if spec.task == "frames":
                proba = models.frame_proba(it, attribute)
            else:
                proba = models.pair_proba(it, attribute)
            preds[attribute.value].append(decide(proba))
    return _score(
        golds,
        preds,
        algorithm="emb-maxent",
        spec=spec,
        fingerprint=_fingerprint(spec.to_text(), "emb-maxent"),
    )


# -- the full model --


@dataclass
class Prediction:
    node: NodeRef
    gold: RelationValue
    predicted: RelationValue
    belief: np.ndarray


@dataclass
class RunResult:
    report: AccuracyReport
    predictions: list[Prediction]
    beliefs: dict[NodeRef, np.ndarray]
    build: Build
    bp: BPResult

    def pair_belief(self, x: str, y: str, attribute: Attribute) -> np.ndarray:
        """Belief over (x, y) in the asked orientation; GT/LT permuted when
        the stored canonical order is the reverse."""
        lo, hi, swapped = ordered_pair(x, y)
        p = self.beliefs[ObjectPairNode(lo, hi, attribute)]
        return flip_belief(p) if swapped else p

    def graph_dump(self) -> str:
        return dump_graph(self.build.graph)


@dataclass
class Prepared:
    """What every build config of one task shares: the graph dataset (seed
    plus evaluation split), embeddings, co-occurrence counts and the seed
    classifiers, which are trained on first use."""

    spec: TaskSpec
    dataset: KnowledgeDataset
    emb: Embeddings
    stats: CooccurrenceStats
    train_cfg: TrainConfig

    @cached_property
    def models(self) -> TrainedModels:
        return train_models(self.dataset, self.emb, self.train_cfg)


def prepare(spec: TaskSpec, paths: DataPaths, train_cfg: TrainConfig = TrainConfig()) -> Prepared:
    """Load the task's data once, restricted to the seed and evaluation splits."""
    splits = {"seed", spec.eval_split}
    dataset = assemble_task_dataset(paths, spec).restrict(frame_splits=splits, pair_splits=splits)
    emb, stats = load_world(paths)
    return Prepared(spec, dataset, emb, stats, train_cfg)


def build_graph(prepared: Prepared, cfg: BuildConfig, attributes: Sequence[Attribute] = ATTRIBUTES) -> Build:
    """Assemble the graph for one config with only seed labels readable;
    classifiers are trained only when the config attaches their factors."""
    with prepared.dataset.audit_label_access({"seed"}):
        needs_models = cfg.enabled("emb") and (cfg.emb_frames or cfg.emb_objects)
        models = prepared.models if needs_models else None
        return build(attributes, prepared.dataset, prepared.emb, prepared.stats, models, cfg)


def infer(
    prepared: Prepared,
    cfg: BuildConfig,
    bp_cfg: BPConfig,
    attributes: Sequence[Attribute] = ATTRIBUTES,
) -> RunResult:
    """Build the graph, run BP, score the evaluation split."""
    spec, train_cfg, graph_ds = prepared.spec, prepared.train_cfg, prepared.dataset
    built = build_graph(prepared, cfg, attributes)
    bp = run_bp(built.graph, bp_cfg)

    beliefs: dict[NodeRef, np.ndarray] = {}
    for vid in range(built.graph.n_variables):
        beliefs[built.graph.node_of(vid)] = bp.marginals[vid]

    items = _eval_items(graph_ds, spec)
    golds: dict[str, list[RelationValue]] = {a.value: [] for a in attributes}
    preds: dict[str, list[RelationValue]] = {a.value: [] for a in attributes}
    predictions: list[Prediction] = []
    for attribute in attributes:
        for it in items:
            if not graph_ds.has_label(it, attribute):
                continue
            node = it.node(attribute)
            belief = beliefs[node]
            predicted = decide(belief)
            gold = graph_ds.gold(it, attribute)
            golds[attribute.value].append(gold)
            preds[attribute.value].append(predicted)
            predictions.append(Prediction(node, gold, predicted, belief))

    fingerprint = _fingerprint(
        spec.to_text(),
        cfg.to_text(),
        f"bp={bp_cfg.max_iterations},{bp_cfg.convergence_eps!r},{bp_cfg.damping!r}",
        f"train={train_cfg.l2_lambda!r},{train_cfg.learning_rate!r},{train_cfg.epochs},{train_cfg.rng_seed}",
    )
    report = _score(
        golds,
        preds,
        algorithm="model",
        spec=spec,
        fingerprint=fingerprint,
        converged=bp.converged,
        iterations=bp.iterations,
    )
    return RunResult(report, predictions, beliefs, built, bp)


def run_task(
    spec: TaskSpec,
    cfg: BuildConfig,
    bp_cfg: BPConfig,
    paths: DataPaths,
    train_cfg: TrainConfig = TrainConfig(),
    attributes: Sequence[Attribute] = ATTRIBUTES,
) -> RunResult:
    """Train on seeds, build the graph, run BP, score the evaluation split."""
    return infer(prepare(spec, paths, train_cfg), cfg, bp_cfg, attributes)


# -- ablations --


def toggle_switch(cfg: BuildConfig, component: Optional[str]) -> BuildConfig:
    """Flip one factor kind or class-level switch; None is the identity."""
    if component is None or component == "none":
        return cfg
    if component in FACTOR_KINDS:
        kinds = set(cfg.enabled_factor_kinds)
        kinds.symmetric_difference_update({component})
        return replace(cfg, enabled_factor_kinds=frozenset(kinds))
    if component == "frame_seeds":
        return replace(cfg, seed_frames=not cfg.seed_frames)
    if component == "object_seeds":
        return replace(cfg, seed_objects=not cfg.seed_objects)
    if component == "frame_embeddings":
        return replace(cfg, emb_frames=not cfg.emb_frames)
    if component == "object_embeddings":
        return replace(cfg, emb_objects=not cfg.emb_objects)
    raise ValueError(f"unknown ablation switch {component!r}")


@dataclass
class AblationResult:
    component: Optional[str]
    full: AccuracyReport
    ablated: AccuracyReport

    @property
    def delta(self) -> float:
        return self.full.overall - self.ablated.overall


def run_ablation(
    spec: TaskSpec,
    base_cfg: BuildConfig,
    component: Optional[str],
    bp_cfg: BPConfig,
    paths: DataPaths,
    train_cfg: TrainConfig = TrainConfig(),
    attributes: Sequence[Attribute] = ATTRIBUTES,
) -> AblationResult:
    """The base run and the run with one switch flipped, side by side."""
    prepared = prepare(spec, paths, train_cfg)
    full = infer(prepared, base_cfg, bp_cfg, attributes)
    ablated = infer(prepared, toggle_switch(base_cfg, component), bp_cfg, attributes)
    return AblationResult(component, full.report, ablated.report)


# -- threshold / factor-set tuning --


@dataclass
class TuneResult:
    best: BuildConfig
    best_score: float
    table: list[tuple[str, float]]  # (config text, dev overall) per candidate


def tune_thresholds(
    spec: TaskSpec,
    grid: Sequence[BuildConfig],
    paths: DataPaths,
    bp_cfg: BPConfig = BPConfig(),
    train_cfg: TrainConfig = TrainConfig(),
    attributes: Sequence[Attribute] = ATTRIBUTES,
) -> TuneResult:
    """Exhaustive dev-set search; ties break toward the lexicographically
    smaller config text."""
    candidates = list(grid)
    if not candidates:
        raise ValueError("empty tuning grid")
    prepared = prepare(replace(spec, eval_split="dev"), paths, train_cfg)
    best_cfg: Optional[BuildConfig] = None
    best_score = -1.0
    table: list[tuple[str, float]] = []
    for cfg in sorted(candidates, key=lambda c: c.to_text()):
        result = infer(prepared, cfg, bp_cfg, attributes)
        score = result.report.overall
        table.append((cfg.to_text(), score))
        if score > best_score:
            best_cfg = cfg
            best_score = score
    return TuneResult(best_cfg, best_score, table)


# -- report output --


def write_run(result: RunResult, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.tsv").write_text(result.report.to_tsv(), encoding="utf-8")
    (out / "report.json").write_text(result.report.to_json(), encoding="utf-8")
    (out / "build_report.tsv").write_text(result.build.report_tsv(), encoding="utf-8")
    lines = ["node\tgold\tpredicted\tp_gt\tp_eq\tp_lt"]
    for pred in result.predictions:
        p = pred.belief
        lines.append(
            f"{pred.node.key}\t{TOKEN_OF_RELATION[pred.gold]}\t{TOKEN_OF_RELATION[pred.predicted]}"
            f"\t{p[0]:.6f}\t{p[1]:.6f}\t{p[2]:.6f}"
        )
    (out / "predictions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
