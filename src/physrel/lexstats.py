"""Ingestion and statistics: embeddings, embedding similarity, co-occurrence PMI, dataset.

File formats (UTF-8, ``#``-prefixed comment lines ignored everywhere):

* embeddings: one ``word v1 ... vd`` row per line, whitespace separated
* frame labels (TSV): verb, frame_type, preposition-or-"-", attribute,
  relation in {>, <, =}, split in {seed, dev, test}
* pair labels (TSV): object_x, object_y, attribute, relation, split
* co-occurrence (TSV): frame_key, object_x, object_y, count; the object
  columns are in frame-argument order and marginals are derived by summation
"""
from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import Attribute, FrameNode, ObjectPairNode, RelationValue, flip, ordered_pair
from .core import relation_from_token

logger = logging.getLogger(__name__)

SPLITS = ("seed", "dev", "test")

# Items marked by a generic human token take the embedding of "person".
HUMAN_TOKEN = "HUMAN"
HUMAN_PROXY = "person"


class LabelAccessError(RuntimeError):
    """Raised when a gold label is read outside the allowed splits."""


# -- embeddings --


class EmbeddingStore:
    """Immutable word -> dense vector map with a single declared dimension."""

    def __init__(self, dim: int, vectors: Mapping[str, np.ndarray] = ()):
        self.dim = int(dim)
        self._vectors: dict[str, np.ndarray] = {}
        for word, vec in dict(vectors).items():
            self._add(word, vec)

    def _add(self, word: str, vec) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector for {word!r} has shape {vec.shape}, expected ({self.dim},)")
        self._vectors[word] = vec

    def get(self, word: str) -> Optional[np.ndarray]:
        vec = self._vectors.get(word)
        if vec is None and word == HUMAN_TOKEN:
            return self._vectors.get(HUMAN_PROXY)
        return vec


def load_embeddings(path, expected_dim: int) -> EmbeddingStore:
    """Parse a plain-text embedding file, validating every row's arity and
    that its values are finite."""
    store = EmbeddingStore(expected_dim)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != expected_dim + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {expected_dim} values, got {len(parts) - 1}"
                )
            word = parts[0]
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            if word in store._vectors:
                logger.warning("%s: line %d: duplicate word %r kept first occurrence", path, lineno, word)
                continue
            store._add(word, vec)
    return store


@dataclass(frozen=True)
class Embeddings:
    """The two stores the model needs: verbs (100-d), objects/prepositions (50-d)."""

    verbs: EmbeddingStore
    objects: EmbeddingStore


def similar_pairs(store: EmbeddingStore, words: Sequence[str], threshold: float) -> np.ndarray:
    """(W, W) mask of the word pairs whose cosine similarity exceeds ``threshold``,
    as one product of row-normalized vectors; a word without a vector has none."""
    vectors = [store.get(w) for w in words]
    m = np.array([np.full(store.dim, np.nan) if v is None else v for v in vectors]).reshape(len(words), store.dim)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    # A zero-norm row stays zero (cosine 0.0); a missing word's NaN row compares false.
    m = np.divide(m, norms, out=np.zeros_like(m), where=norms != 0)
    return m @ m.T > threshold


# -- co-occurrence counts and PMI --


class CooccurrenceStats:
    """Frame/pair joint counts with marginals derived by summation.

    Pairs are kept in frame-argument (evidence) order; orientation matters
    and is resolved downstream against canonical pair storage.
    """

    def __init__(self, joint: Mapping[tuple[str, tuple[str, str]], int]):
        self._joint: dict[tuple[str, tuple[str, str]], int] = {}
        self.frame_counts: dict[str, int] = {}
        self.pair_counts: dict[tuple[str, str], int] = {}
        self.total = 0
        for (frame_key, pair), count in joint.items():
            count = int(count)
            if count < 0:
                raise ValueError(f"negative count for ({frame_key}, {pair})")
            self._joint[(frame_key, tuple(pair))] = count
            self.frame_counts[frame_key] = self.frame_counts.get(frame_key, 0) + count
            self.pair_counts[tuple(pair)] = self.pair_counts.get(tuple(pair), 0) + count
            self.total += count

    def joint_count(self, frame_key: str, pair: tuple[str, str]) -> int:
        return self._joint.get((frame_key, tuple(pair)), 0)

    def entries(self) -> list[tuple[str, tuple[str, str], int]]:
        """All (frame_key, pair, count) triples in deterministic order."""
        return sorted((fk, pair, c) for (fk, pair), c in self._joint.items())


def load_cooccurrence(path) -> CooccurrenceStats:
    joint: dict[tuple[str, tuple[str, str]], int] = {}
    for lineno, (frame_key, x, y, count) in _read_rows(path, 4):
        try:
            count = int(count)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-integer count {count!r}") from None
        if count < 1:
            raise ValueError(f"{path}: line {lineno}: count {count} is below 1")
        joint[(frame_key, (x, y))] = joint.get((frame_key, (x, y)), 0) + count
    return CooccurrenceStats(joint)


def pmi(stats: CooccurrenceStats, frame_key: str, pair: tuple[str, str]) -> float:
    """Natural-log PMI; -inf when the joint count is zero."""
    c_f = stats.frame_counts.get(frame_key, 0)
    c_p = stats.pair_counts.get(tuple(pair), 0)
    if c_f <= 0 or c_p <= 0:
        raise ValueError(f"zero marginal count for ({frame_key!r}, {pair!r})")
    c_fp = stats.joint_count(frame_key, pair)
    if c_fp == 0:
        return float("-inf")
    return float(np.log(c_fp * stats.total / (c_f * c_p)))


# -- labeled dataset --


@dataclass(frozen=True)
class FrameItem:
    verb: str
    frame_type: str
    preposition: Optional[str]
    split: str

    @property
    def key(self) -> tuple:
        return (self.verb, self.frame_type, self.preposition or "")

    @property
    def frame_key(self) -> str:
        return f"{self.verb}:{self.frame_type}:{self.preposition or '-'}"

    def node(self, attribute: Attribute) -> FrameNode:
        return FrameNode(self.verb, self.frame_type, self.preposition, attribute)


@dataclass(frozen=True)
class PairItem:
    x: str  # canonical (lexicographic) order
    y: str
    split: str

    @property
    def key(self) -> tuple:
        return (self.x, self.y)

    def node(self, attribute: Attribute) -> ObjectPairNode:
        return ObjectPairNode(self.x, self.y, attribute)


class KnowledgeDataset:
    """Labeled frames and object pairs with per-attribute gold relations.

    Gold labels are reached only through :meth:`gold`, which honors the
    audit guard installed by :meth:`audit_label_access`; split membership
    and which attributes are labeled are public.
    """

    def __init__(
        self,
        frames: Sequence[FrameItem],
        pairs: Sequence[PairItem],
        frame_labels: Mapping[tuple, Mapping[Attribute, RelationValue]],
        pair_labels: Mapping[tuple, Mapping[Attribute, RelationValue]],
    ):
        self.frames = sorted(frames, key=lambda it: it.key)
        self.pairs = sorted(pairs, key=lambda it: it.key)
        self._frame_labels = {k: dict(v) for k, v in frame_labels.items()}
        self._pair_labels = {k: dict(v) for k, v in pair_labels.items()}
        self._allowed_splits: Optional[frozenset[str]] = None
        self._validate()

    def _validate(self) -> None:
        seen = set()
        by_verb: dict[str, str] = {}
        for it in self.frames:
            if it.split not in SPLITS:
                raise ValueError(f"unknown split {it.split!r} for frame {it.key}")
            if it.key in seen:
                raise ValueError(f"duplicate frame {it.key}")
            seen.add(it.key)
            if it.verb in by_verb and by_verb[it.verb] != it.split:
                raise ValueError(f"frames of verb {it.verb!r} span multiple splits")
            by_verb[it.verb] = it.split
            if it.key not in self._frame_labels or not self._frame_labels[it.key]:
                raise ValueError(f"frame {it.key} has no labels")
        seen = set()
        for it in self.pairs:
            if it.split not in SPLITS:
                raise ValueError(f"unknown split {it.split!r} for pair {it.key}")
            if it.key in seen:
                raise ValueError(f"duplicate pair {it.key}")
            seen.add(it.key)
            if it.key not in self._pair_labels or not self._pair_labels[it.key]:
                raise ValueError(f"pair {it.key} has no labels")

    # -- label access --

    @contextmanager
    def audit_label_access(self, allowed_splits: Iterable[str]):
        """Restrict gold() to the given splits inside the context."""
        previous = self._allowed_splits
        self._allowed_splits = frozenset(allowed_splits)
        try:
            yield self
        finally:
            self._allowed_splits = previous

    def gold(self, item, attribute: Attribute) -> RelationValue:
        if self._allowed_splits is not None and item.split not in self._allowed_splits:
            raise LabelAccessError(
                f"gold label of {item.split!r} item {item.key} read while only "
                f"{sorted(self._allowed_splits)} are allowed"
            )
        labels = self._labels_of(item)
        if attribute not in labels:
            raise KeyError(f"item {item.key} has no label for {attribute}")
        return labels[attribute]

    def has_label(self, item, attribute: Attribute) -> bool:
        return attribute in self._labels_of(item)

    def _labels_of(self, item) -> Mapping[Attribute, RelationValue]:
        if isinstance(item, FrameItem):
            return self._frame_labels[item.key]
        if isinstance(item, PairItem):
            return self._pair_labels[item.key]
        raise TypeError(f"not a dataset item: {item!r}")

    # -- views and summaries --

    def frames_in(self, *splits: str) -> list[FrameItem]:
        return [it for it in self.frames if it.split in splits]

    def pairs_in(self, *splits: str) -> list[PairItem]:
        return [it for it in self.pairs if it.split in splits]

    def restrict(self, frame_splits: Iterable[str], pair_splits: Iterable[str]) -> "KnowledgeDataset":
        """Dataset view containing only items of the given splits."""
        frame_splits = set(frame_splits)
        pair_splits = set(pair_splits)
        frames = [it for it in self.frames if it.split in frame_splits]
        pairs = [it for it in self.pairs if it.split in pair_splits]
        return KnowledgeDataset(
            frames,
            pairs,
            {it.key: self._frame_labels[it.key] for it in frames},
            {it.key: self._pair_labels[it.key] for it in pairs},
        )


def _read_rows(path, n_columns: int) -> Iterator[tuple[int, list[str]]]:
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != n_columns:
                raise ValueError(f"{path}: line {lineno}: expected {n_columns} columns, got {len(parts)}")
            yield lineno, parts


def load_dataset(frame_file, pair_file) -> KnowledgeDataset:
    """Load the canonical TSV pair of label files."""
    frames: dict[tuple, FrameItem] = {}
    frame_labels: dict[tuple, dict[Attribute, RelationValue]] = {}
    for lineno, (verb, frame_type, prep, attr_tok, rel_tok, split) in _read_rows(frame_file, 6):
        prep_val = None if prep == "-" else prep
        attribute = Attribute.from_token(attr_tok)
        relation = relation_from_token(rel_tok)
        if split not in SPLITS:
            raise ValueError(f"{frame_file}: line {lineno}: unknown split {split!r}")
        item = FrameItem(verb, frame_type, prep_val, split)
        if item.key in frames:
            if frames[item.key].split != split:
                raise ValueError(f"{frame_file}: line {lineno}: frame {item.key} has conflicting splits")
            if attribute in frame_labels[item.key]:
                raise ValueError(f"{frame_file}: line {lineno}: duplicate label for {item.key} / {attribute}")
        else:
            frames[item.key] = item
            frame_labels[item.key] = {}
        frame_labels[item.key][attribute] = relation

    pairs: dict[tuple, PairItem] = {}
    pair_labels: dict[tuple, dict[Attribute, RelationValue]] = {}
    for lineno, (x, y, attr_tok, rel_tok, split) in _read_rows(pair_file, 5):
        attribute = Attribute.from_token(attr_tok)
        relation = relation_from_token(rel_tok)
        if split not in SPLITS:
            raise ValueError(f"{pair_file}: line {lineno}: unknown split {split!r}")
        lo, hi, swapped = ordered_pair(x, y)
        relation = flip(relation) if swapped else relation
        key = (lo, hi)
        if key in pairs:
            if pairs[key].split != split:
                raise ValueError(f"{pair_file}: line {lineno}: pair {key} has conflicting splits")
            if attribute in pair_labels[key]:
                raise ValueError(f"{pair_file}: line {lineno}: duplicate label for {key} / {attribute}")
        else:
            pairs[key] = PairItem(lo, hi, split)
            pair_labels[key] = {}
        pair_labels[key][attribute] = relation

    return KnowledgeDataset(list(frames.values()), list(pairs.values()), frame_labels, pair_labels)


def combine(frame_dataset: KnowledgeDataset, pair_dataset: KnowledgeDataset) -> KnowledgeDataset:
    """Frames from one dataset plus pairs from another (mixed seed profiles)."""
    return KnowledgeDataset(
        frame_dataset.frames, pair_dataset.pairs, frame_dataset._frame_labels, pair_dataset._pair_labels
    )
