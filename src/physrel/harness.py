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
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from numbers import Integral
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .builder import (
    Build,
    BuildConfig,
    FACTOR_KINDS,
    TrainedModels,
    build,
    featurize_items,
    train_models,
)
from .core import (
    ATTRIBUTES,
    Attribute,
    NodeRef,
    ObjectPairNode,
    RelationValue,
    flip_belief,
    ordered_pair,
)
from .factorgraph import BPConfig, BPResult, run_bp
from .lexstats import (
    KINDS,
    CooccurrenceStats,
    Embeddings,
    KnowledgeDataset,
    load_cooccurrence,
    load_dataset,
    load_embeddings,
)
from .maxent import TrainConfig

TASKS = ("frames", "objects")

VERB_EMBEDDING_DIM = 100
OBJECT_EMBEDDING_DIM = 50

# Ablation switches: the seven factor kinds plus four class-level cuts, each negating a BuildConfig field.
CLASS_SWITCHES = dict(
    frame_seeds="seed_frames", object_seeds="seed_objects",
    frame_embeddings="emb_frames", object_embeddings="emb_objects",
)
SWITCHES = FACTOR_KINDS + tuple(CLASS_SWITCHES)


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
    """In-domain data at the 5% profile, cross-domain at the spec's profile;
    only the two label files the task uses are read."""
    cross_20 = spec.cross_seed_fraction == "20"
    frame_file = paths.frames_20 if cross_20 and spec.task == "objects" else paths.frames_5
    pair_file = paths.pairs_20 if cross_20 and spec.task == "frames" else paths.pairs_5
    return load_dataset(frame_file, pair_file)


# -- reports --


RELATIONS = tuple(RelationValue)  # by code


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
    residual: Optional[float] = None  # BP's last largest message change

    def to_tsv(self) -> str:
        lines = [
            f"algorithm\t{self.algorithm}",
            f"task\t{self.task}",
            f"eval_split\t{self.eval_split}",
            f"converged\t{self.converged}",
            f"iterations\t{self.iterations}",
            f"residual\t{self.residual!r}",
            f"config_fingerprint\t{self.config_fingerprint}",
        ]
        for attr in sorted(self.per_attribute):
            lines.append(f"accuracy:{attr}\t{self.per_attribute[attr]:.6f}\t{self.counts[attr]}")
        lines.append(f"overall\t{self.overall:.6f}")
        lines.append(f"micro\t{self.micro:.6f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _score(
    gold: np.ndarray,
    preds: np.ndarray,
    *,
    algorithm: str,
    spec: TaskSpec,
    fingerprint: str,
    bp: Optional[BPResult] = None,
) -> AccuracyReport:
    """Per-attribute, macro (overall) and micro accuracy of predicted against
    gold relation codes, both (items, len(ATTRIBUTES)) matrices, over the
    entries that have a gold label."""
    per_attribute: dict[str, float] = {}
    counts: dict[str, int] = {}
    total = correct = 0
    for attribute in sorted(ATTRIBUTES, key=str):
        column = ATTRIBUTES.index(attribute)
        labeled = gold[:, column] >= 0
        counts[attribute.value] = n = int(labeled.sum())
        if n:
            hits = int((gold[labeled, column] == preds[labeled, column]).sum())
            per_attribute[attribute.value] = hits / n
            total, correct = total + n, correct + hits
    overall = float(np.mean([per_attribute[a] for a in per_attribute])) if per_attribute else 0.0
    return AccuracyReport(
        algorithm=algorithm,
        task=spec.task,
        eval_split=spec.eval_split,
        per_attribute=per_attribute,
        counts=counts,
        overall=overall,
        micro=correct / total if total else 0.0,
        config_fingerprint=fingerprint,
        **({"converged": bp.converged, "iterations": bp.iterations, "residual": bp.residuals[-1]} if bp else {}),
    )


def _eval_labels(dataset: KnowledgeDataset, spec: TaskSpec) -> tuple[str, np.ndarray, np.ndarray]:
    """The scored item class, the rows of its evaluation split and their gold label matrix."""
    kind = "frames" if spec.task == "frames" else "pairs"
    rows = dataset.rows_in(kind, spec.eval_split)
    return kind, rows, dataset.gold_rows(kind, rows)


def _fingerprint(*chunks: str) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


# -- baselines --


def check_random_baseline(rng_seed: int, resamples: int) -> None:
    """Raise ValueError for a seed TrainConfig rejects, or a resample count that is not an int or is below one."""
    TrainConfig(rng_seed=rng_seed)
    if not isinstance(resamples, Integral) or isinstance(resamples, bool):
        raise ValueError(f"resamples must be an int, not {resamples!r}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")


def baseline_random(dataset: KnowledgeDataset, spec: TaskSpec, rng_seed: int = 0, resamples: int = 1) -> AccuracyReport:
    """Uniform choice among the three values; expected accuracy 1/3."""
    check_random_baseline(rng_seed, resamples)
    _, _, gold = _eval_labels(dataset, spec)
    rng = np.random.default_rng(rng_seed)
    accs: dict[str, float] = {}
    counts: dict[str, int] = {}
    for column, attribute in enumerate(ATTRIBUTES):
        g = gold[gold[:, column] >= 0, column]
        counts[attribute.value] = len(g)
        if len(g):
            accs[attribute.value] = float((rng.integers(0, 3, size=(resamples, len(g))) == g).mean())
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
    kind, _, gold = _eval_labels(dataset, spec)
    with dataset.audit_label_access({"seed"}):
        seed_gold = dataset.gold_rows(kind, dataset.rows_in(kind, "seed"))
    preds = np.empty_like(gold)
    for column, attribute in enumerate(ATTRIBUTES):
        tallies = np.bincount(seed_gold[seed_gold[:, column] >= 0, column], minlength=3)
        if tallies.sum() == 0 and (gold[:, column] >= 0).any():
            raise ValueError(f"empty seed split for attribute {attribute.value}")
        preds[:, column] = np.argmax(tallies)
    return _score(gold, preds, algorithm="majority", spec=spec, fingerprint=_fingerprint(spec.to_text(), "majority"))


def baseline_emb_maxent(dataset: KnowledgeDataset, spec: TaskSpec, models: TrainedModels) -> AccuracyReport:
    """Classifier-only predictions for every evaluation item."""
    kind, rows, gold = _eval_labels(dataset, spec)
    features = featurize_items(kind, [getattr(dataset, kind)[r] for r in rows], models.embeddings)
    preds = np.empty_like(gold)
    for column, attribute in enumerate(ATTRIBUTES):
        labeled = gold[:, column] >= 0
        if labeled.any():
            preds[labeled, column] = np.argmax(models.proba(kind, features[labeled], attribute), axis=1)
    fingerprint = _fingerprint(spec.to_text(), "emb-maxent")
    return _score(gold, preds, algorithm="emb-maxent", spec=spec, fingerprint=fingerprint)


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
    beliefs: dict[NodeRef, np.ndarray]  # in variable id order
    build: Build
    bp: BPResult
    # Seconds per stage: the prepared data's load and train, each build
    # stage ("build.<stage>"), BP and scoring.
    timings: dict[str, float]

    def pair_belief(self, x: str, y: str, attribute: Attribute) -> np.ndarray:
        """Belief over (x, y) in the asked orientation; GT/LT permuted when
        the stored canonical order is the reverse."""
        lo, hi, swapped = ordered_pair(x, y)
        p = self.beliefs[ObjectPairNode(lo, hi, attribute)]
        return flip_belief(p) if swapped else p


@dataclass
class Prepared:
    """What every build config of one task shares: the graph dataset (seed
    plus evaluation split), embeddings, co-occurrence counts and the seed
    classifiers, which are trained on first use. ``timings`` holds the
    seconds loading and training took."""

    spec: TaskSpec
    dataset: KnowledgeDataset
    emb: Embeddings
    stats: CooccurrenceStats
    train_cfg: TrainConfig
    timings: dict[str, float] = field(default_factory=dict)

    @cached_property
    def models(self) -> TrainedModels:
        start = time.perf_counter()
        models = train_models(self.dataset, self.emb, self.train_cfg)
        self.timings["train"] = time.perf_counter() - start
        return models


def prepare(spec: TaskSpec, paths: DataPaths, train_cfg: TrainConfig = TrainConfig()) -> Prepared:
    """Load the task's data once, restricted to the seed and evaluation splits."""
    start = time.perf_counter()
    splits = {"seed", spec.eval_split}
    dataset = assemble_task_dataset(paths, spec).restrict(frame_splits=splits, pair_splits=splits)
    emb, stats = load_world(paths)
    return Prepared(spec, dataset, emb, stats, train_cfg, {"load": time.perf_counter() - start})


def build_graph(prepared: Prepared, cfg: BuildConfig) -> Build:
    """Assemble the graph for one config with only seed labels readable;
    classifiers are trained only when the config attaches their factors."""
    with prepared.dataset.audit_label_access({"seed"}):
        models = prepared.models if cfg.unary_classes()[1] else None
        return build(prepared.dataset, prepared.emb, prepared.stats, models, cfg)


def infer(prepared: Prepared, cfg: BuildConfig, bp_cfg: BPConfig) -> RunResult:
    """Build the graph, run BP, score the evaluation split."""
    spec, train_cfg, graph_ds = prepared.spec, prepared.train_cfg, prepared.dataset
    built = build_graph(prepared, cfg)
    start = time.perf_counter()
    bp = run_bp(built.graph, bp_cfg)
    bp_s, start = time.perf_counter() - start, time.perf_counter()

    graph = built.graph
    beliefs: dict[NodeRef, np.ndarray] = dict(zip(map(graph.node_of, range(graph.n_variables)), bp.marginals))
    # Each evaluation item's variable and argmax relation (ties toward GT) per attribute;
    # a variable is -1 (no node) only where gold is -1, so its prediction is never read.
    kind, rows, gold = _eval_labels(graph_ds, spec)
    variables = built.item_vars[KINDS.index(kind)][rows]
    preds = np.argmax(bp.marginals[variables], axis=2)
    predictions = []
    for column in range(len(ATTRIBUTES)):
        scored = gold[:, column] >= 0
        variable_ids, golds, predicted = variables[scored, column], gold[scored, column], preds[scored, column]
        for var, g, p in zip(variable_ids.tolist(), golds.tolist(), predicted.tolist()):
            predictions.append(Prediction(graph.node_of(var), RELATIONS[g], RELATIONS[p], bp.marginals[var]))

    fingerprint = _fingerprint(
        spec.to_text(),
        cfg.to_text(),
        f"bp={bp_cfg.max_iterations},{bp_cfg.convergence_eps!r},{bp_cfg.damping!r}",
        f"train={train_cfg.l2_lambda!r},{train_cfg.learning_rate!r},{train_cfg.epochs},{train_cfg.rng_seed}",
    )
    report = _score(gold, preds, algorithm="model", spec=spec, fingerprint=fingerprint, bp=bp)
    build_s = {f"build.{stage}": s for stage, s in built.timings.items()}
    timings = {**prepared.timings, **build_s, "bp": bp_s, "score": time.perf_counter() - start}
    return RunResult(report, predictions, beliefs, built, bp, timings)


def run_task(
    spec: TaskSpec,
    cfg: BuildConfig,
    bp_cfg: BPConfig,
    paths: DataPaths,
    train_cfg: TrainConfig = TrainConfig(),
) -> RunResult:
    """Train on seeds, build the graph, run BP, score the evaluation split."""
    return infer(prepare(spec, paths, train_cfg), cfg, bp_cfg)


# -- ablations --


def toggle_switch(cfg: BuildConfig, component: Optional[str]) -> BuildConfig:
    """Flip one factor kind or class-level switch; None is the identity."""
    if component is None or component == "none":
        return cfg
    if component in FACTOR_KINDS:
        return replace(cfg, enabled_factor_kinds=cfg.enabled_factor_kinds ^ {component})
    if component in CLASS_SWITCHES:
        name = CLASS_SWITCHES[component]
        return replace(cfg, **{name: not getattr(cfg, name)})
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
) -> AblationResult:
    """The base run and the run with one switch flipped, side by side."""
    prepared = prepare(spec, paths, train_cfg)
    full = infer(prepared, base_cfg, bp_cfg)
    ablated = infer(prepared, toggle_switch(base_cfg, component), bp_cfg)
    return AblationResult(component, full.report, ablated.report)


# -- threshold / factor-set tuning --


@dataclass
class TuneResult:
    best: BuildConfig
    best_score: float
    table: list[tuple[str, float]]  # (config text, dev overall) per distinct candidate


def tune_thresholds(
    spec: TaskSpec,
    grid: Sequence[BuildConfig],
    paths: DataPaths,
    bp_cfg: BPConfig = BPConfig(),
    train_cfg: TrainConfig = TrainConfig(),
) -> TuneResult:
    """Exhaustive dev-set search, each distinct config text scored once; ties
    break toward the lexicographically smaller config text."""
    candidates = {cfg.to_text(): cfg for cfg in grid}
    if not candidates:
        raise ValueError("empty tuning grid")
    prepared = prepare(replace(spec, eval_split="dev"), paths, train_cfg)
    table = [(text, infer(prepared, cfg, bp_cfg).report.overall) for text, cfg in sorted(candidates.items())]
    best_text, best_score = max(table, key=lambda row: row[1])  # the first of equal scores
    return TuneResult(candidates[best_text], best_score, table)
