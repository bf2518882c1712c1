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

from .core import ATTRIBUTES, RELATION_TOKENS, Attribute, FrameNode, ObjectPairNode, RelationValue, ordered_pair
from .core import FLIP_INDEX, format_frame_key, frame_type_index, relation_from_token

logger = logging.getLogger(__name__)

SPLITS = ("seed", "dev", "test")

# Items marked by a generic human token take the embedding of "person".
HUMAN_TOKEN = "HUMAN"
HUMAN_PROXY = "person"


class LabelAccessError(RuntimeError):
    """Raised when a gold label is read outside the allowed splits."""


def data_lines(path) -> tuple[list[int], list[str]]:
    """The numbers (from 1) and the texts, without line breaks, of the lines
    of the UTF-8 file ``path`` that are neither blank nor ``#`` comments."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    numbers = [n for n, line in enumerate(lines, 1) if line.strip() and not line.startswith("#")]
    return numbers, [lines[n - 1] for n in numbers]


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
    for lineno, line in zip(*data_lines(path)):
        parts = line.split()
        if len(parts) != expected_dim + 1:
            raise ValueError(f"{path}: line {lineno}: expected {expected_dim} values, got {len(parts) - 1}")
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
    """Frame/pair joint counts, stored as columns, with marginals derived by summation.

    ``frames`` and ``objects`` are the sorted distinct frame keys and object
    names, so code order is string order. Each distinct (frame, x, y) is one
    entry, entries sorted by those codes: ``frame``, ``x`` and ``y`` hold the
    codes and ``count`` the summed counts. Pairs are kept in frame-argument
    (evidence) order; orientation matters and is resolved downstream against
    canonical pair storage.
    """

    def __init__(self, frame_keys: Sequence[str], xs: Sequence[str], ys: Sequence[str], counts: Sequence[int]):
        """One row per (frame_key, x, y, count) in any order; repeated
        (frame_key, x, y) rows are summed. Every count must be at least 1,
        and their sum below 2**63."""
        for row, count in enumerate(counts):
            if count < 1:
                raise ValueError(f"count {count} for ({frame_keys[row]!r}, ({xs[row]!r}, {ys[row]!r})) is below 1")
        total = sum(map(int, counts))
        if total >= 2**63:
            raise ValueError(f"counts sum to {total}, more than 64-bit integers hold")
        counts = np.array(counts, dtype=np.int64).reshape(-1)
        self.frames, frame = codes(frame_keys)
        self.objects, xy = codes([*xs, *ys])
        x, y = xy[: len(xs)], xy[len(xs) :]
        order = np.lexsort((y, x, frame))
        frame, x, y, counts = frame[order], x[order], y[order], counts[order]
        first = np.flatnonzero(np.diff(frame, prepend=-1) | np.diff(x, prepend=-1) | np.diff(y, prepend=-1))
        self.frame, self.x, self.y = frame[first], x[first], y[first]
        self.count = np.add.reduceat(counts, first) if len(first) else counts
        self.total = total
        # Marginals: per frame code, and per entry the total of its (x, y).
        self.frame_total = np.zeros(len(self.frames), np.int64)
        np.add.at(self.frame_total, self.frame, self.count)
        _, pair_of = np.unique(self.x * len(self.objects) + self.y, return_inverse=True)
        pair_total = np.zeros(len(self.count), np.int64)
        np.add.at(pair_total, pair_of, self.count)
        self.pair_total = pair_total[pair_of]

    def entry_pmi(self, rows) -> np.ndarray:
        """Natural-log PMI of the entries ``rows``; the counts multiply as floats."""
        joint = self.count[rows] * float(self.total)
        return np.log(joint / (self.frame_total[self.frame[rows]] * self.pair_total[rows].astype(float)))


def codes(values: Sequence) -> tuple[list, np.ndarray]:
    """The sorted distinct values, and each value's index among them."""
    distinct = sorted(set(values))
    index = {value: i for i, value in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def load_cooccurrence(path) -> CooccurrenceStats:
    """Parse a co-occurrence file into columns. Any malformed row raises
    ValueError naming its file and line."""
    numbers, rows = data_lines(path)
    widths = [row.count("\t") + 1 for row in rows]
    k = len(rows) if widths.count(4) == len(rows) else [w == 4 for w in widths].index(False)
    fields = "\t".join(rows[:k]).split("\t") if k else []
    texts = fields[3::4]
    parsed = {text: _count(text) for text in set(texts)}
    counts = list(map(parsed.__getitem__, texts))
    bad = [c is None or c < 1 for c in counts]
    if True in bad or k < len(rows):
        row = bad.index(True) if True in bad else k
        if row == k:
            problem = f"expected 4 columns, got {widths[row]}"
        elif counts[row] is None:
            problem = f"non-integer count {texts[row]!r}"
        else:
            problem = f"count {counts[row]} is below 1"
        raise ValueError(f"{path}: line {numbers[row]}: {problem}")
    try:
        return CooccurrenceStats(fields[0::4], fields[1::4], fields[2::4], counts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _count(text: str) -> Optional[int]:
    try:
        return int(text)
    except ValueError:
        return None


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
        return format_frame_key(self.verb, self.frame_type, self.preposition)

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


# Item classes, each stored as its own columns; builder.Build.item_vars follows this order.
KINDS = ("frames", "pairs")
SPLIT_CODE = {split: code for code, split in enumerate(SPLITS)}
_ATTRIBUTE_COLUMN = {a.value: column for column, a in enumerate(ATTRIBUTES)}
_RELATION_CODE = {token: int(r) for token, r in RELATION_TOKENS.items()}


def _split_codes(splits: Iterable[str]) -> list[int]:
    """The codes of the named splits; a name outside SPLITS raises ValueError."""
    try:
        return [SPLIT_CODE[split] for split in splits]
    except KeyError as exc:
        raise ValueError(f"unknown split {exc.args[0]!r}, not one of {SPLITS}") from None


class KnowledgeDataset:
    """Labeled frames and object pairs with per-attribute gold relations.

    Each item class of :data:`KINDS` is stored as columns: its items in key
    order, an int8 split code per item (an index into :data:`SPLITS`) and an
    ``(items, len(ATTRIBUTES))`` int8 label matrix holding a RelationValue per
    attribute column and -1 where the item is unlabeled. Gold labels are read
    only through :meth:`gold_rows` (and :meth:`gold`), which honor the audit
    guard installed by :meth:`audit_label_access`; items, splits and which
    attributes are labeled are public.
    """

    def __init__(self, frames: Sequence[FrameItem], frame_labels, pairs: Sequence[PairItem], pair_labels):
        """Items of each class in any order, each with its label-matrix row."""
        self._columns: dict[str, tuple[list, np.ndarray, np.ndarray]] = {}
        for kind, items, labels in (("frames", frames, frame_labels), ("pairs", pairs, pair_labels)):
            keys = [it.key for it in items]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            items, keys = [items[i] for i in order], [keys[i] for i in order]
            labels = np.asarray(labels, dtype=np.int8).reshape(len(keys), len(ATTRIBUTES))[order]
            splits = np.array([SPLIT_CODE.get(it.split, -1) for it in items], dtype=np.int8)
            _check_items(kind[:-1], items, keys, splits, labels)
            self._columns[kind] = (items, splits, labels)
        self.frames, self.pairs = self._columns["frames"][0], self._columns["pairs"][0]
        self._rows: dict[str, dict[tuple, int]] = {}  # per class, item key -> row, built on first use
        self._allowed_splits: Optional[frozenset[str]] = None

    # -- label access --

    @contextmanager
    def audit_label_access(self, allowed_splits: Iterable[str]):
        """Restrict gold_rows() and gold() to the given splits inside the context."""
        previous, allowed = self._allowed_splits, frozenset(allowed_splits)
        _split_codes(allowed)
        self._allowed_splits = allowed
        try:
            yield self
        finally:
            self._allowed_splits = previous

    def gold_rows(self, kind: str, rows) -> np.ndarray:
        """Label-matrix rows ``rows`` of class ``kind`` (attribute columns, -1
        where unlabeled). Raises LabelAccessError naming the first row whose
        split is outside the audited set."""
        items, splits, labels = self._columns[kind]
        rows = np.asarray(rows, dtype=np.intp)
        if self._allowed_splits is not None:
            bad = ~np.isin(splits[rows], _split_codes(self._allowed_splits))
            if bad.any():
                item = items[rows[np.argmax(bad)]]
                raise LabelAccessError(
                    f"gold label of {item.split!r} item {item.key} read while only "
                    f"{sorted(self._allowed_splits)} are allowed"
                )
        return labels[rows]

    def labeled(self, kind: str) -> np.ndarray:
        """(items, attributes) mask of the labels the items of class ``kind`` carry."""
        return self._columns[kind][2] >= 0

    def rows_in(self, kind: str, *splits: str) -> np.ndarray:
        """Rows of the items of class ``kind`` in the given splits, in key order."""
        return np.flatnonzero(np.isin(self._columns[kind][1], _split_codes(splits)))

    def gold(self, item, attribute: Attribute) -> RelationValue:
        kind, row = self._locate(item)
        code = int(self.gold_rows(kind, [row])[0, ATTRIBUTES.index(attribute)])
        if code < 0:
            raise KeyError(f"item {item.key} has no label for {attribute}")
        return RelationValue(code)

    def has_label(self, item, attribute: Attribute) -> bool:
        kind, row = self._locate(item)
        return bool(self._columns[kind][2][row, ATTRIBUTES.index(attribute)] >= 0)

    def _locate(self, item) -> tuple[str, int]:
        if isinstance(item, FrameItem):
            kind = "frames"
        elif isinstance(item, PairItem):
            kind = "pairs"
        else:
            raise TypeError(f"not a dataset item: {item!r}")
        if kind not in self._rows:
            self._rows[kind] = {it.key: row for row, it in enumerate(self._columns[kind][0])}
        return kind, self._rows[kind][item.key]

    # -- views --

    def pairs_in(self, *splits: str) -> list[PairItem]:
        return [self.pairs[row] for row in self.rows_in("pairs", *splits)]

    def restrict(self, frame_splits: Iterable[str], pair_splits: Iterable[str]) -> "KnowledgeDataset":
        """Dataset view containing only items of the given splits."""
        parts = []
        for kind, splits in (("frames", frame_splits), ("pairs", pair_splits)):
            items, _, labels = self._columns[kind]
            rows = self.rows_in(kind, *splits)
            parts += [[items[row] for row in rows], labels[rows]]
        return KnowledgeDataset(*parts)


def _check_items(name: str, items: list, keys: list, splits: np.ndarray, labels: np.ndarray) -> None:
    """Items in key order must have a known split, a distinct key and a label;
    a verb's frames must all share one split."""
    for row in np.flatnonzero(splits < 0):
        raise ValueError(f"unknown split {items[row].split!r} for {name} {keys[row]}")
    for key, previous in zip(keys[1:], keys):
        if key == previous:
            raise ValueError(f"duplicate {name} {key}")
    for row in np.flatnonzero((labels < 0).all(axis=1)):
        raise ValueError(f"{name} {keys[row]} has no labels")
    verb_split: dict[str, str] = {}
    for it in items if name == "frame" else ():
        if verb_split.setdefault(it.verb, it.split) != it.split:
            raise ValueError(f"frames of verb {it.verb!r} span multiple splits")


def _read_rows(path, n_columns: int) -> Iterator[tuple[int, list[str]]]:
    for lineno, line in zip(*data_lines(path)):
        parts = line.split("\t")
        if len(parts) != n_columns:
            raise ValueError(f"{path}: line {lineno}: expected {n_columns} columns, got {len(parts)}")
        yield lineno, parts


def load_dataset(frame_file, pair_file) -> KnowledgeDataset:
    """Load the canonical TSV pair of label files. Any malformed row raises
    ValueError naming its file and line."""
    return KnowledgeDataset(*_load_labels(frame_file, "frame"), *_load_labels(pair_file, "pair"))


def _load_labels(path, name: str) -> tuple[list, list]:
    """The items of one label file ("frame" or "pair" rows) in first-seen
    order, and a label row per item. Reversed pair rows are flipped into the
    canonical order."""
    row_of: dict[tuple, int] = {}
    verb_split: dict[str, str] = {}
    items, labels = [], []
    for lineno, (*key_columns, attr_tok, rel_tok, split) in _read_rows(path, 6 if name == "frame" else 5):
        try:
            column = _ATTRIBUTE_COLUMN.get(attr_tok)
            if column is None:
                column = ATTRIBUTES.index(Attribute.from_token(attr_tok))
            relation = _RELATION_CODE.get(rel_tok)
            if relation is None:
                relation = int(relation_from_token(rel_tok))
            if split not in SPLIT_CODE:
                raise ValueError(f"unknown split {split!r}")
            if name == "frame":
                verb, frame_type, prep = key_columns
                frame_type_index(frame_type)  # raises for an unregistered frame type
                key, swapped = (verb, frame_type, "" if prep == "-" else prep), False
            else:
                lo, hi, swapped = ordered_pair(*key_columns)
                key = (lo, hi)
            row = row_of.setdefault(key, len(items))
            if row == len(items):
                items.append(FrameItem(*key[:2], key[2] or None, split) if name == "frame" else PairItem(*key, split))
                labels.append([-1] * len(ATTRIBUTES))
            elif items[row].split != split:
                raise ValueError(f"{name} {key} has conflicting splits")
            if name == "frame" and verb_split.setdefault(key[0], split) != split:
                raise ValueError(f"frames of verb {key[0]!r} span multiple splits")
            if labels[row][column] >= 0:
                raise ValueError(f"duplicate label for {key} / {ATTRIBUTES[column]}")
            labels[row][column] = FLIP_INDEX[relation] if swapped else relation
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return items, labels
