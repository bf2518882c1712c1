"""Assemble the factor graph over the five attributes.

Node set: one variable per usable (dataset item, attribute), numbered once
by :func:`make_nodes`; an attribute that labels no item has no node. Each
family then hands each chunk of its factors to the graph as soon as it is made;
the graph is the only record of them, and the build report is counted from it.
Factor families, each behind its own kind tag so ablations can switch them:

* ``seed``    unary, gold-label row of the soft-1 matrix, seed split only
* ``emb``     unary, classifier probabilities, every node
* ``selpref`` binary, frame <-> pair with text co-occurrence above the PMI gate
* ``verbsim`` binary, same frame shape across embedding-similar verbs
* ``framesim`` binary, same-verb frames whose argument pair plays the same roles
* ``objsim``  binary (plus a unary EQ nudge), pairs sharing a comparator with
  an embedding-similar object
* ``attrsim`` binary, same frame across attributes that agree on seed labels

All binary factors use the fixed soft-1 agreement matrix; a row-flipped copy
encodes the expectation that two variables take opposite values. No family
emits two factors with the same kind and unordered scope, so none is
deduplicated.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, fields
from itertools import combinations, repeat
from typing import Optional, Sequence

import numpy as np

from .core import ATTRIBUTES, FLIP_INDEX, FRAME_TYPE_ROLES, N_VALUES, Attribute, RelationValue
from .factorgraph import FactorGraph
from .lexstats import KINDS, CooccurrenceStats, Embeddings, KnowledgeDataset, codes, data_lines, similar_pairs
from .maxent import MaxentModel, TrainConfig, featurize_frame, featurize_object_pair, predict_proba, train

# Fixed 3x3 agreement potential; rows/columns indexed (GT, EQ, LT).
SOFT_ONE = np.array(
    [
        [0.70, 0.10, 0.20],
        [0.15, 0.70, 0.15],
        [0.20, 0.10, 0.70],
    ]
)

FACTOR_KINDS = ("seed", "emb", "selpref", "verbsim", "framesim", "objsim", "attrsim")


def flipped_table(m: np.ndarray = SOFT_ONE) -> np.ndarray:
    """Row-permuted table D[r1][r2] = M[flip(r1)][r2].

    Encourages the second variable toward the opposite of the first (EQ
    pairs with EQ): used when two linked variables view a shared relation
    from opposite orientations.
    """
    return m[FLIP_INDEX]


@dataclass(frozen=True)
class BuildConfig:
    """Thresholds and switches for graph construction (dev-tunable)."""

    verb_sim_threshold: float = 0.55
    obj_sim_threshold: float = 0.70
    pmi_threshold: float = 0.0
    attr_agreement_threshold: float = 0.95
    min_shared_seed_frames: int = 10
    enabled_factor_kinds: frozenset = frozenset(FACTOR_KINDS)
    seed_frames: bool = True
    seed_objects: bool = True
    emb_frames: bool = True
    emb_objects: bool = True

    def __post_init__(self):
        # Every value must be one that from_file reads back from to_text.
        if not isinstance(self.enabled_factor_kinds, frozenset):
            raise ValueError(f"enabled_factor_kinds must be a frozenset, not {self.enabled_factor_kinds!r}")
        unknown = set(self.enabled_factor_kinds) - set(FACTOR_KINDS)
        if unknown:
            raise ValueError(f"unknown factor kinds {sorted(unknown)}")
        for name in ("verb_sim_threshold", "obj_sim_threshold", "pmi_threshold", "attr_agreement_threshold"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int or a float, not {value!r}")
            if not abs(value) <= sys.float_info.max:  # also an int too large for a float
                raise ValueError(f"{name} must be finite")
        shared = self.min_shared_seed_frames
        if type(shared) is not int or shared < 0:
            raise ValueError(f"min_shared_seed_frames must be an int >= 0, not {shared!r}")
        for name in ("seed_frames", "seed_objects", "emb_frames", "emb_objects"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, not {getattr(self, name)!r}")

    def enabled(self, kind: str) -> bool:
        return kind in self.enabled_factor_kinds

    def unary_classes(self) -> tuple[list[str], list[str]]:
        """The item classes (of ``KINDS``) whose nodes take seed factors, and those whose nodes take emb factors."""
        seeded = [kind for kind, on in zip(KINDS, (self.seed_frames, self.seed_objects)) if on and self.enabled("seed")]
        embedded = [kind for kind, on in zip(KINDS, (self.emb_frames, self.emb_objects)) if on and self.enabled("emb")]
        return seeded, embedded

    def to_text(self) -> str:
        """One ``key=value`` line per field, in declaration order, each value as
        its field's type (its default's) spells it: equal configs have one text."""
        return "".join(f"{f.name}={_format_value(type(f.default), getattr(self, f.name))}\n" for f in fields(self))

    @classmethod
    def from_file(cls, path) -> "BuildConfig":
        """Parse :meth:`to_text` output; any field may be left out, none given
        twice. Raises ValueError naming the file, and the line of a malformed
        or repeated one."""
        kwargs: dict = {}
        for lineno, line in zip(*data_lines(path)):
            key, sep, value = (part.strip() for part in line.partition("="))
            try:
                if not sep:
                    raise ValueError("expected key=value")
                if key in kwargs:
                    raise ValueError(f"{key!r} is set twice")
                kwargs[key] = cls.parse_field(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def parse_field(cls, key: str, text: str):
        """The value of field ``key`` that ``text`` spells, in :meth:`to_text`'s
        form: ``true``/``false`` in any case, comma-separated factor kinds."""
        field_type = next((type(f.default) for f in fields(cls) if f.name == key), None)
        if field_type is None:
            raise ValueError(f"unknown config key {key!r}")
        if field_type is bool:
            if text.lower() not in ("true", "false"):
                raise ValueError(f"expected true or false, got {text!r}")
            return text.lower() == "true"
        if field_type is frozenset:
            return frozenset(k for k in text.split(",") if k)
        return field_type(text)


def _format_value(field_type: type, value) -> str:
    if field_type is frozenset:
        return ",".join(sorted(value))
    return repr(field_type(value))  # a float field's int or np.float64 as a float


# -- trained classifier bundle --


# The classifier's node class for each dataset item class.
NODE_CLASSES = {"frames": "frame", "pairs": "object-pair"}


def featurize_items(kind: str, items: Sequence, emb: Embeddings) -> np.ndarray:
    """(items, dim) feature matrix of dataset items of class ``kind``."""
    if kind == "frames":
        return featurize_frame(
            [it.verb for it in items], [it.frame_type for it in items], [it.preposition for it in items], emb
        )
    return featurize_object_pair([it.x for it in items], [it.y for it in items], emb)


@dataclass
class TrainedModels:
    """Per-(attribute, node-class) classifiers plus the embeddings that
    featurize their inputs."""

    models: dict[tuple[Attribute, str], MaxentModel]
    embeddings: Embeddings

    def proba(self, kind: str, features: np.ndarray, attribute: Attribute) -> np.ndarray:
        """Class probabilities of each row of the feature matrix of ``kind`` items."""
        try:
            model = self.models[(attribute, NODE_CLASSES[kind])]
        except KeyError:
            raise ValueError(f"no trained model for ({attribute}, {NODE_CLASSES[kind]!r})") from None
        return predict_proba(model, features)


def train_models(dataset: KnowledgeDataset, embeddings: Embeddings, cfg: TrainConfig = TrainConfig()) -> TrainedModels:
    """Train one classifier per (attribute, node-class) on seed items only,
    each class's seed items featurized once."""
    labeled = {}
    with dataset.audit_label_access({"seed"}):
        for kind in KINDS:
            rows = dataset.rows_in(kind, "seed")
            items = getattr(dataset, kind)
            labeled[kind] = (featurize_items(kind, [items[r] for r in rows], embeddings), dataset.gold_rows(kind, rows))
    trained: dict[tuple[Attribute, str], MaxentModel] = {}
    for kind, (features, gold) in labeled.items():
        node_class = NODE_CLASSES[kind]
        # The attributes labeled on the same items train in one stacked descent.
        groups: dict[bytes, list[int]] = {}
        for column in np.flatnonzero((gold >= 0).any(axis=0)).tolist():
            groups.setdefault((gold[:, column] >= 0).tobytes(), []).append(column)
        for columns in groups.values():
            rows = gold[:, columns[0]] >= 0
            group = [ATTRIBUTES[c] for c in columns]
            models = train(features[rows], gold[rows][:, columns], cfg, group, node_class)
            trained.update(((attribute, node_class), model) for attribute, model in zip(group, models))
    # Attribute by attribute, frames before pairs, as one model at a time would run.
    order = [(attribute, NODE_CLASSES[kind]) for attribute in ATTRIBUTES for kind in KINDS]
    return TrainedModels({key: trained[key] for key in order if key in trained}, embeddings)


# -- graph assembly --


# Binary tables by table id; a unary factor's table id indexes its family's rows.
SOFT, FLIPPED = 0, 1
BINARY_TABLES = (SOFT_ONE, flipped_table(SOFT_ONE))


@dataclass
class Build:
    graph: FactorGraph
    dataset: KnowledgeDataset
    # (items, ATTRIBUTES) variable ids of the frame and of the pair items, in
    # key order; -1 where the graph has no node.
    item_vars: tuple[np.ndarray, np.ndarray]
    timings: dict[str, float] = field(default_factory=dict)  # build stage -> seconds

    @property
    def report(self) -> dict[str, int]:
        """Factor count per kind, for the kinds the graph has."""
        counts = np.bincount(self.graph.columns()[0], minlength=len(self.graph.kinds))
        return {kind: int(n) for kind, n in zip(self.graph.kinds, counts) if n}

    def add(self, kind, a, b=-1, table=SOFT, rows: Sequence = ()) -> None:
        """Add one chunk of factors of ``kind`` (a ``FACTOR_KINDS`` name, or each factor's index into it) on
        variables ``a`` and ``b`` (-1 for a unary factor); ``b``, ``table`` and ``kind`` broadcast against ``a``.
        A unary factor's table id indexes ``rows``, a binary one's ``BINARY_TABLES``."""
        kind = FACTOR_KINDS.index(kind) if isinstance(kind, str) else kind
        a, b, table, kind = np.broadcast_arrays(np.asarray(a, dtype=np.int64), b, table, kind)
        self.graph.add_factors(FACTOR_KINDS, kind, np.column_stack([a, b]), table, rows, BINARY_TABLES)

    def report_tsv(self) -> str:
        report = self.report
        lines = [f"variables\t{self.graph.n_variables}"]
        for kind in FACTOR_KINDS:
            lines.append(f"{kind}\t{report.get(kind, 0)}")
        return "\n".join(lines) + "\n"


def make_nodes(dataset: KnowledgeDataset) -> Build:
    """One variable per usable (item, attribute).

    Ids run attribute by attribute in ``ATTRIBUTES`` order; within an
    attribute, its frames and then its pairs, each in dataset key order:
    each block's ids start at the count of labels in the blocks before it.
    """
    graph = FactorGraph()
    masks = [dataset.labeled(kind) for kind in KINDS]
    item_vars = tuple(np.full(mask.shape, -1, np.int64) for mask in masks)
    for column, attribute in enumerate(ATTRIBUTES):
        for kind, mask, variables in zip(KINDS, masks, item_vars):
            rows = np.flatnonzero(mask[:, column])
            variables[rows, column] = graph.n_variables + np.arange(len(rows))
            items = getattr(dataset, kind)
            for row in rows.tolist():
                graph.add_variable(items[row].node(attribute))
    return Build(graph, dataset, item_vars)


def add_seed_and_emb_factors(build: Build, models: Optional[TrainedModels], cfg: BuildConfig) -> None:
    """Unary factors: soft-1 gold rows on seed nodes, classifier rows everywhere.

    Factors run attribute by attribute, frames then pairs, in item order;
    an item's seed factor comes before its emb factor. A classifier row that is not
    finite and strictly positive raises ValueError naming its item and attribute.
    """
    dataset = build.dataset
    seeded, embedded = cfg.unary_classes()
    if embedded and models is None:
        raise ValueError("emb factors requested but no trained models supplied")
    features = {kind: featurize_items(kind, getattr(dataset, kind), models.embeddings) for kind in embedded}
    kind_codes = np.array([FACTOR_KINDS.index("seed"), FACTOR_KINDS.index("emb")])
    with dataset.audit_label_access({"seed"}):
        for column, attribute in enumerate(ATTRIBUTES):
            for kind, variables in zip(KINDS, build.item_vars):
                rows = np.flatnonzero(variables[:, column] >= 0)
                # Per node, slot 0 is its seed factor and slot 1 its emb factor.
                present = np.zeros((len(rows), 2), dtype=bool)
                table = np.empty((len(rows), 2, N_VALUES))
                if kind in seeded:
                    present[:, 0] = np.isin(rows, dataset.rows_in(kind, "seed"))
                    gold = dataset.gold_rows(kind, rows[present[:, 0]])[:, column]
                    table[present[:, 0], 0] = SOFT_ONE[gold]
                if kind in embedded and len(rows):
                    present[:, 1] = True
                    proba = table[:, 1] = models.proba(kind, features[kind][rows], attribute)
                    if not 0 < proba.min() <= proba.max() < np.inf:  # nan fails too
                        bad = ~((proba > 0) & (proba < np.inf)).all(axis=1)
                        key = getattr(dataset, kind)[rows[np.argmax(bad)]].key
                        raise ValueError(f"classifier row of {NODE_CLASSES[kind]} {key} for attribute {attribute} "
                                         "is not finite and strictly positive")
                node, slot = np.nonzero(present)
                build.add(kind_codes[slot], variables[rows[node], column], -1, np.arange(len(node)), table[present])


def add_selectional_preference_factors(build: Build, stats: CooccurrenceStats, cfg: BuildConfig) -> None:
    """Frame <-> pair factors gated by PMI over text co-occurrence.

    The stored pair node is canonical; when the canonical order reverses the
    frame's argument order the row-flipped table is used. Conflicting
    orientations of the same (frame, pair) evidence resolve to the larger
    joint count, and on equal counts to the first in entry order. Links run
    in (frame key, canonical pair) order.
    """
    frame, x, y = stats.frame, stats.x, stats.y
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    # Per (frame, unordered pair), the entry with the largest count: the first
    # of its slot in an order by count, descending, that keeps ties in entry order.
    order = np.lexsort((-stats.count, hi, lo, frame))
    order = order[x[order] != y[order]]
    slot = np.column_stack([frame, lo, hi])[order]
    first = np.ones(len(order), bool)
    first[1:] = (slot[1:] != slot[:-1]).any(axis=1)
    chosen = order[first]

    frame_row = {it.frame_key: i for i, it in enumerate(build.dataset.frames)}
    frames = np.fromiter(map(frame_row.get, stats.frames, repeat(-1)), np.int64, len(stats.frames))[frame[chosen]]
    code = dict(zip(stats.objects, range(len(stats.objects))))
    pair_row = {(code.get(it.x, -1), code.get(it.y, -1)): i for i, it in enumerate(build.dataset.pairs)}
    slots = zip(lo[chosen].tolist(), hi[chosen].tolist())
    pairs = np.fromiter(map(pair_row.get, slots, repeat(-1)), np.int64, len(chosen))
    linked = (frames >= 0) & (pairs >= 0)
    linked[linked] = stats.entry_pmi(chosen[linked]) > cfg.pmi_threshold
    frames, pairs, evidence = frames[linked], pairs[linked], chosen[linked]
    tables = np.where(x[evidence] == lo[evidence], SOFT, FLIPPED)
    # One factor per link and attribute where both nodes exist.
    frame_vars, pair_vars = build.item_vars[0][frames], build.item_vars[1][pairs]
    both = (frame_vars >= 0) & (pair_vars >= 0)
    table = np.broadcast_to(tables[:, None], both.shape)[both]
    build.add("selpref", frame_vars[both], pair_vars[both], table)


# Coarse role equivalence for the within-verb frame link: the second slot of
# a frame relation is "the argument acted upon" whether it arrived as a
# direct or prepositional object.
_COARSE_ROLE = {"agent": "agent", "theme": "patient", "goal": "patient"}


def frames_link(frame_type_a: str, frame_type_b: str) -> bool:
    """True when two frame shapes relate argument pairs playing the same roles."""
    ra = tuple(_COARSE_ROLE[r] for r in FRAME_TYPE_ROLES[frame_type_a])
    rb = tuple(_COARSE_ROLE[r] for r in FRAME_TYPE_ROLES[frame_type_b])
    return ra == rb


def add_similarity_factors(build: Build, emb: Embeddings, cfg: BuildConfig) -> None:
    """Verb-, frame-, and object-similarity factors.

    Verb and object similarity, and which frames of a verb link, are computed
    once over the build's items; each attribute then links the nodes it has.
    Links follow item key order, so each family's factors are in that order.
    """
    frames, pairs = build.dataset.frames, build.dataset.pairs
    verbs, verb_of = codes([it.verb for it in frames])
    shapes, shape_of = codes([(it.frame_type, it.preposition or "") for it in frames])
    objects, object_of = codes([o for it in pairs for o in (it.x, it.y)])
    x_of, y_of = object_of[0::2], object_of[1::2]
    rows_of_verb: dict[str, list[int]] = {}
    for row, it in enumerate(frames):
        rows_of_verb.setdefault(it.verb, []).append(row)
    linked = []  # same-verb frame pairs whose shapes relate the same roles
    for rows in rows_of_verb.values():
        linked += [(i, j) for i, j in combinations(rows, 2) if frames_link(frames[i].frame_type, frames[j].frame_type)]
    linked = np.array(linked, dtype=np.int64).reshape(-1, 2)
    similar_verbs = np.nonzero(np.triu(similar_pairs(emb.verbs, verbs, cfg.verb_sim_threshold), 1))
    similar_objects = np.nonzero(np.triu(similar_pairs(emb.objects, objects, cfg.obj_sim_threshold), 1))

    for frame_vars, pair_vars in zip(build.item_vars[0].T, build.item_vars[1].T):
        if cfg.enabled("framesim"):
            a, b = frame_vars[linked].T
            build.add("framesim", a[(a >= 0) & (b >= 0)], b[(a >= 0) & (b >= 0)])
        if cfg.enabled("verbsim"):
            # For each similar verb pair (u, v), u before v: a link between their frames of one shape.
            var_at = np.full((len(verbs), len(shapes)), -1, dtype=np.int64)
            var_at[verb_of, shape_of] = frame_vars
            u, v = similar_verbs
            both = (var_at[u] >= 0) & (var_at[v] >= 0)
            build.add("verbsim", var_at[u][both], var_at[v][both])
        if cfg.enabled("objsim"):
            _object_similarity_factors(build, x_of, y_of, pair_vars, len(objects), similar_objects)


def _object_similarity_factors(build: Build, x_of, y_of, variables, n_objects: int, similar) -> None:
    """Add, for each similar object pair (x, y), x before y: an EQ nudge on
    the pair's own node, then a link between (x, z) and (y, z) for every
    shared comparator z in order, flipped when z sits between x and y."""
    var_of = np.full((n_objects, n_objects), -1, dtype=np.int64)
    var_of[x_of, y_of] = var_of[y_of, x_of] = variables
    x, y = similar
    # Per similar pair, column 0 is the pair's own node and column 1 + z the comparator z.
    p, col = np.nonzero(np.column_stack([var_of[x, y] >= 0, (var_of[x] >= 0) & (var_of[y] >= 0)]))
    x, y, z, direct = x[p], y[p], col - 1, col == 0
    a = np.where(direct, var_of[x, y], var_of[x, z])
    b = np.where(direct, -1, var_of[y, z])
    tables = np.where(direct, 0, np.where((x < z) == (y < z), SOFT, FLIPPED))
    build.add("objsim", a, b, tables, [SOFT_ONE[RelationValue.EQ]])


def add_attribute_factors(build: Build, cfg: BuildConfig) -> None:
    """Cross-attribute frame coupling, gated on seed-label agreement; an
    attribute pair that labels no seed frame in common gets no factor."""
    dataset = build.dataset
    with dataset.audit_label_access({"seed"}):
        gold = dataset.gold_rows("frames", dataset.rows_in("frames", "seed"))
    for i, j in combinations(range(len(ATTRIBUTES)), 2):
        shared = (gold[:, i] >= 0) & (gold[:, j] >= 0)
        n_shared = int(shared.sum())
        if n_shared < max(cfg.min_shared_seed_frames, 1):
            continue
        if int((gold[shared, i] == gold[shared, j]).sum()) / n_shared < cfg.attr_agreement_threshold:
            continue
        var_a, var_b = build.item_vars[0][:, i], build.item_vars[0][:, j]
        both = (var_a >= 0) & (var_b >= 0)
        build.add("attrsim", var_a[both], var_b[both])


def build(
    dataset: KnowledgeDataset,
    emb: Optional[Embeddings],
    stats: Optional[CooccurrenceStats],
    models: Optional[TrainedModels],
    cfg: BuildConfig = BuildConfig(),
) -> Build:
    """Full graph assembly; the result's ``timings`` holds the seconds each
    stage took."""
    start = time.perf_counter()
    result = make_nodes(dataset)
    result.timings["nodes"] = time.perf_counter() - start
    if any(cfg.unary_classes()):
        _timed(result, "seed_emb", add_seed_and_emb_factors, models, cfg)
    if cfg.enabled("selpref"):
        if stats is None:
            raise ValueError("selpref factors requested but no co-occurrence stats supplied")
        _timed(result, "selpref", add_selectional_preference_factors, stats, cfg)
    if cfg.enabled("verbsim") or cfg.enabled("framesim") or cfg.enabled("objsim"):
        if emb is None:
            raise ValueError("similarity factors requested but no embeddings supplied")
        _timed(result, "similarity", add_similarity_factors, emb, cfg)
    if cfg.enabled("attrsim"):
        _timed(result, "attrsim", add_attribute_factors, cfg)
    return result


def _timed(result: Build, stage: str, add, *args) -> None:
    start = time.perf_counter()
    add(result, *args)
    # A stage adds many small chunks among its larger temporaries; joining them as those
    # are freed keeps the heap from being left in scattered pieces for later stages.
    result.graph.columns()
    result.timings[stage] = time.perf_counter() - start
