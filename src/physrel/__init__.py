"""Joint inference of relative physical knowledge of objects and verbs.

The package infers three-way relations (GT, EQ, LT) along five physical
attributes, jointly over concrete object pairs and the implications verb
frames carry about their arguments, by loopy belief propagation on a factor
graph seeded with a small labeled set and embedding-based classifiers.
"""
from .core import (
    ATTRIBUTES,
    Attribute,
    FrameNode,
    ObjectPairNode,
    RelationValue,
    flip,
    flip_belief,
)
from .factorgraph import BPConfig, FactorGraph, dump_graph, exact_marginals, load_graph, run_bp
from .builder import SOFT_ONE, BuildConfig, build, flipped_table, train_models
from .harness import (
    AccuracyReport,
    DataPaths,
    TaskSpec,
    baseline_emb_maxent,
    baseline_majority,
    baseline_random,
    run_ablation,
    run_task,
    tune_thresholds,
)
from .lexstats import (
    CooccurrenceStats,
    EmbeddingStore,
    Embeddings,
    KnowledgeDataset,
    load_cooccurrence,
    load_dataset,
    load_embeddings,
)
from .maxent import MaxentModel, TrainConfig, featurize_frame, featurize_object_pair, predict_proba, train
from .synthetic import generate_world

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTES",
    "AccuracyReport",
    "Attribute",
    "BPConfig",
    "BuildConfig",
    "CooccurrenceStats",
    "DataPaths",
    "EmbeddingStore",
    "Embeddings",
    "FactorGraph",
    "FrameNode",
    "KnowledgeDataset",
    "MaxentModel",
    "ObjectPairNode",
    "RelationValue",
    "SOFT_ONE",
    "TaskSpec",
    "TrainConfig",
    "baseline_emb_maxent",
    "baseline_majority",
    "baseline_random",
    "build",
    "dump_graph",
    "exact_marginals",
    "featurize_frame",
    "featurize_object_pair",
    "flip",
    "flip_belief",
    "flipped_table",
    "generate_world",
    "load_cooccurrence",
    "load_dataset",
    "load_embeddings",
    "load_graph",
    "predict_proba",
    "run_ablation",
    "run_bp",
    "run_task",
    "train",
    "train_models",
    "tune_thresholds",
]
