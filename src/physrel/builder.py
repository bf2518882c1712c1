"""Assemble the per-attribute (optionally cross-attribute) factor graph.

Node set: one variable per usable dataset item per requested attribute,
numbered once by :func:`make_nodes`. Each family then appends its factors to
the graph in one bulk call; the graph is the only record of them, and the
build report is counted from it. Factor families, each behind its own kind
tag so ablations can switch them:

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

from dataclasses import dataclass, fields
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .core import ATTRIBUTES, FRAME_TYPE_ROLES, Attribute, RelationValue, flip
from .factorgraph import FactorGraph
from .lexstats import CooccurrenceStats, Embeddings, KnowledgeDataset, pmi, similar_pairs
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
    rows = np.array([int(flip(RelationValue(i))) for i in range(3)])
    return np.asarray(m)[rows]


def seed_table(gold: RelationValue) -> np.ndarray:
    """Unary seed potential: the gold-label indexed row of the soft-1 matrix."""
    return SOFT_ONE[int(gold)].copy()


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
        unknown = set(self.enabled_factor_kinds) - set(FACTOR_KINDS)
        if unknown:
            raise ValueError(f"unknown factor kinds {sorted(unknown)}")
        for name in ("verb_sim_threshold", "obj_sim_threshold", "pmi_threshold", "attr_agreement_threshold"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def enabled(self, kind: str) -> bool:
        return kind in self.enabled_factor_kinds

    def to_text(self) -> str:
        """One ``key=value`` line per field, in declaration order."""
        return "".join(f"{f.name}={_format_value(getattr(self, f.name))}\n" for f in fields(self))

    @classmethod
    def from_file(cls, path) -> "BuildConfig":
        """Parse :meth:`to_text` output; any field may be left out. Raises
        ValueError naming the file, and the line of a malformed one."""
        kwargs: dict = {}
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip() or line.startswith("#"):
                    continue
                key, sep, value = (part.strip() for part in line.partition("="))
                try:
                    if not sep:
                        raise ValueError("expected key=value")
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


def _format_value(value) -> str:
    return ",".join(sorted(value)) if isinstance(value, frozenset) else repr(value)


# -- trained classifier bundle --


@dataclass
class TrainedModels:
    """Per-(attribute, node-class) classifiers plus the embeddings that
    featurize their inputs."""

    models: dict[tuple[Attribute, str], MaxentModel]
    embeddings: Embeddings

    def model_for(self, attribute: Attribute, node_class: str) -> MaxentModel:
        try:
            return self.models[(attribute, node_class)]
        except KeyError:
            raise ValueError(f"no trained model for ({attribute}, {node_class!r})") from None

    def frame_proba(self, item, attribute: Attribute) -> np.ndarray:
        model = self.model_for(attribute, "frame")
        x = featurize_frame(item.verb, item.frame_type, item.preposition, self.embeddings)
        return predict_proba(model, x)

    def pair_proba(self, item, attribute: Attribute) -> np.ndarray:
        model = self.model_for(attribute, "object-pair")
        x = featurize_object_pair(item.x, item.y, self.embeddings)
        return predict_proba(model, x)


def train_models(
    dataset: KnowledgeDataset,
    embeddings: Embeddings,
    cfg: TrainConfig = TrainConfig(),
    attributes: Sequence[Attribute] = ATTRIBUTES,
) -> TrainedModels:
    """Train one classifier per (attribute, node-class) on seed items only."""
    models: dict[tuple[Attribute, str], MaxentModel] = {}
    with dataset.audit_label_access({"seed"}):
        for attribute in attributes:
            frame_examples = [
                (featurize_frame(it.verb, it.frame_type, it.preposition, embeddings), dataset.gold(it, attribute))
                for it in dataset.frames_in("seed")
                if dataset.has_label(it, attribute)
            ]
            pair_examples = [
                (featurize_object_pair(it.x, it.y, embeddings), dataset.gold(it, attribute))
                for it in dataset.pairs_in("seed")
                if dataset.has_label(it, attribute)
            ]
            if frame_examples:
                models[(attribute, "frame")] = train(frame_examples, cfg, attribute, "frame")
            if pair_examples:
                models[(attribute, "object-pair")] = train(pair_examples, cfg, attribute, "object-pair")
    return TrainedModels(models, embeddings)


# -- graph assembly --


# Binary tables by table id; a unary factor's table id indexes its family's rows.
SOFT, FLIPPED = 0, 1
BINARY_TABLES = (SOFT_ONE, flipped_table(SOFT_ONE))


def factor_rows(kind: str, a, b=-1, table=SOFT) -> np.ndarray:
    """Factors as (kind code, var a, var b or -1 if unary, table id) rows; b and table broadcast."""
    a, b, table = np.broadcast_arrays(np.asarray(a, dtype=np.int64), b, table)
    return np.column_stack([np.full(len(a), FACTOR_KINDS.index(kind)), a, b, table]).astype(np.int64)


@dataclass
class Build:
    graph: FactorGraph
    attributes: tuple[Attribute, ...]
    frame_items: dict[tuple, object]  # item key -> FrameItem, in key order
    pair_items: dict[tuple, object]
    # (items, attributes) variable ids of the frame and of the pair items, in
    # key order and attribute column order; -1 where the graph has no node.
    item_vars: tuple[np.ndarray, np.ndarray]

    @property
    def report(self) -> dict[str, int]:
        """Factor count per kind, for the kinds the graph has."""
        counts = np.bincount(self.graph.columns()[0], minlength=len(self.graph.kinds))
        return {kind: int(n) for kind, n in zip(self.graph.kinds, counts) if n}

    def add(self, chunks: Sequence[np.ndarray], rows: Sequence = ()) -> None:
        """Add :func:`factor_rows` chunks in order, unary table ids indexing ``rows``."""
        factors = np.concatenate([np.zeros((0, 4), np.int64), *chunks])
        self.graph.add_factors(FACTOR_KINDS, factors[:, 0], factors[:, 1:3], factors[:, 3], rows, BINARY_TABLES)

    def report_tsv(self) -> str:
        report = self.report
        lines = [f"variables\t{self.graph.n_variables}"]
        for kind in FACTOR_KINDS:
            lines.append(f"{kind}\t{report.get(kind, 0)}")
        return "\n".join(lines) + "\n"


def make_nodes(dataset: KnowledgeDataset, attributes=None) -> Build:
    """One variable per usable (item, attribute), all attributes by default.

    Ids run attribute by attribute in ``ATTRIBUTES`` order, whatever the
    order of ``attributes``; within an attribute, its frames and then its
    pairs, each in dataset key order.
    """
    attrs = ATTRIBUTES if attributes is None else tuple(attributes)
    graph = FactorGraph()
    item_vars = tuple(np.full((len(items), len(attrs)), -1, np.int64) for items in (dataset.frames, dataset.pairs))
    for attribute in ATTRIBUTES:
        if attribute not in attrs:
            continue
        column = attrs.index(attribute)
        for items, variables in zip((dataset.frames, dataset.pairs), item_vars):
            for row, it in enumerate(items):
                if dataset.has_label(it, attribute):
                    variables[row, column] = graph.add_variable(it.node(attribute))
    return Build(graph, attrs, {it.key: it for it in dataset.frames}, {it.key: it for it in dataset.pairs}, item_vars)


def add_seed_and_emb_factors(
    build: Build, dataset: KnowledgeDataset, models: Optional[TrainedModels], cfg: BuildConfig
) -> Build:
    """Unary factors: soft-1 gold rows on seed nodes, classifier rows everywhere."""
    factors, rows = [], []

    def unary(kind: str, var: int, table) -> None:
        factors.append((FACTOR_KINDS.index(kind), var, -1, len(rows)))
        rows.append(table)

    with dataset.audit_label_access({"seed"}):
        for column, attribute in enumerate(build.attributes):
            for items, variables, seeded, embedded, proba in (
                (dataset.frames, build.item_vars[0], cfg.seed_frames, cfg.emb_frames, "frame_proba"),
                (dataset.pairs, build.item_vars[1], cfg.seed_objects, cfg.emb_objects, "pair_proba"),
            ):
                for it, var in zip(items, variables[:, column].tolist()):
                    if var < 0:
                        continue
                    if cfg.enabled("seed") and seeded and it.split == "seed":
                        unary("seed", var, seed_table(dataset.gold(it, attribute)))
                    if cfg.enabled("emb") and embedded:
                        if models is None:
                            raise ValueError("emb factors requested but no trained models supplied")
                        unary("emb", var, getattr(models, proba)(it, attribute))
    build.add([np.array(factors, dtype=np.int64).reshape(-1, 4)], rows)
    return build


def add_selectional_preference_factors(build: Build, stats: CooccurrenceStats, cfg: BuildConfig) -> Build:
    """Frame <-> pair factors gated by PMI over text co-occurrence.

    The stored pair node is canonical; when the canonical order reverses the
    frame's argument order the row-flipped table is used. Conflicting
    orientations of the same (frame, pair) evidence resolve to the larger
    joint count.
    """
    frame_row = {it.frame_key: i for i, it in enumerate(build.frame_items.values())}
    pair_row = {key: i for i, key in enumerate(build.pair_items)}

    chosen: dict[tuple[str, tuple[str, str]], tuple[int, tuple[str, str]]] = {}
    for frame_key, (p, q), count in stats.entries():
        if p == q:
            continue
        lo, hi = (p, q) if p < q else (q, p)
        slot = (frame_key, (lo, hi))
        prev = chosen.get(slot)
        if prev is None or count > prev[0]:
            chosen[slot] = (count, (p, q))

    links = []  # (frame row, pair row, table) per qualifying evidence
    for (frame_key, (lo, hi)), (count, evidence) in sorted(chosen.items()):
        if frame_key in frame_row and (lo, hi) in pair_row and pmi(stats, frame_key, evidence) > cfg.pmi_threshold:
            links.append((frame_row[frame_key], pair_row[(lo, hi)], FLIPPED if evidence[0] != lo else SOFT))
    frames, pairs, tables = np.array(links, dtype=np.int64).reshape(-1, 3).T
    # One factor per link and attribute where both nodes exist.
    frame_vars, pair_vars = build.item_vars[0][frames], build.item_vars[1][pairs]
    both = (frame_vars >= 0) & (pair_vars >= 0)
    table = np.broadcast_to(tables[:, None], both.shape)[both]
    build.add([factor_rows("selpref", frame_vars[both], pair_vars[both], table)])
    return build


# Coarse role equivalence for the within-verb frame link: the second slot of
# a frame relation is "the argument acted upon" whether it arrived as a
# direct or prepositional object.
_COARSE_ROLE = {"agent": "agent", "theme": "patient", "goal": "patient"}


def frames_link(frame_type_a: str, frame_type_b: str) -> bool:
    """True when two frame shapes relate argument pairs playing the same roles."""
    ra = tuple(_COARSE_ROLE[r] for r in FRAME_TYPE_ROLES[frame_type_a])
    rb = tuple(_COARSE_ROLE[r] for r in FRAME_TYPE_ROLES[frame_type_b])
    return ra == rb


def add_similarity_factors(build: Build, emb: Embeddings, cfg: BuildConfig) -> Build:
    """Verb-, frame-, and object-similarity factors.

    Verb and object similarity are computed once, over every verb and object
    of the build's items, and shared by all attributes.
    """
    frames, pairs = list(build.frame_items.values()), list(build.pair_items.values())
    verbs = sorted({it.verb for it in frames})
    objects = sorted({o for it in pairs for o in (it.x, it.y)})
    similar_verbs = (verbs, similar_pairs(emb.verbs, verbs, cfg.verb_sim_threshold))
    similar_objects = (objects, similar_pairs(emb.objects, objects, cfg.obj_sim_threshold))

    chunks = []
    for column in range(len(build.attributes)):
        # The attribute's frames and pairs that have a node, with its variable.
        frame_vars, pair_vars = build.item_vars[0][:, column].tolist(), build.item_vars[1][:, column].tolist()
        attr_frames = [(it, v) for it, v in zip(frames, frame_vars) if v >= 0]
        attr_pairs = [(it, v) for it, v in zip(pairs, pair_vars) if v >= 0]
        if cfg.enabled("framesim"):
            chunks.append(_frame_factors(attr_frames))
        if cfg.enabled("verbsim"):
            chunks.append(_verb_factors(attr_frames, similar_verbs))
        if cfg.enabled("objsim"):
            chunks.append(_object_similarity_factors(attr_pairs, similar_objects))
    build.add(chunks, [seed_table(RelationValue.EQ)])
    return build


def _among(similar: tuple[list[str], np.ndarray], words: list[str]) -> np.ndarray:
    """The similarity mask of a sorted sub-list of the similarity's words."""
    index = np.searchsorted(similar[0], words)
    return similar[1][np.ix_(index, index)]


def _frame_factors(frames) -> np.ndarray:
    by_verb: dict[str, list[tuple[str, int]]] = {}
    for it, var in frames:
        by_verb.setdefault(it.verb, []).append((it.frame_type, var))
    links = [(a, b) for v in sorted(by_verb) for (s, a), (t, b) in combinations(by_verb[v], 2) if frames_link(s, t)]
    a, b = np.array(links, dtype=np.int64).reshape(-1, 2).T
    return factor_rows("framesim", a, b)


def _verb_factors(frames, similar) -> np.ndarray:
    """For each similar verb pair (u, v), u before v, link the frames of u
    and v that have the same shape, in u's frame order."""
    verbs = sorted({it.verb for it, _ in frames})
    shapes = sorted({(it.frame_type, it.preposition) for it, _ in frames}, key=lambda s: (s[0], s[1] or ""))
    verb_pos, shape_pos = {v: i for i, v in enumerate(verbs)}, {s: i for i, s in enumerate(shapes)}
    var_at = np.full((len(verbs), len(shapes)), -1, dtype=np.int64)
    for it, var in frames:
        var_at[verb_pos[it.verb], shape_pos[(it.frame_type, it.preposition)]] = var
    u, v = np.nonzero(np.triu(_among(similar, verbs), 1))
    both = (var_at[u] >= 0) & (var_at[v] >= 0)
    return factor_rows("verbsim", var_at[u][both], var_at[v][both])


def _object_similarity_factors(pairs, similar) -> np.ndarray:
    """For each similar object pair (x, y), x before y: an EQ nudge (unary
    row 0) on the pair's own node, then a link between (x, z) and (y, z) for
    every shared comparator z in order, flipped when z sits between x and y."""
    objects = sorted({o for it, _ in pairs for o in (it.x, it.y)})
    pos = {o: i for i, o in enumerate(objects)}
    var_of = np.full((len(objects), len(objects)), -1, dtype=np.int64)
    for it, var in pairs:
        var_of[pos[it.x], pos[it.y]] = var_of[pos[it.y], pos[it.x]] = var
    x, y = np.nonzero(np.triu(_among(similar, objects), 1))
    # Per similar pair, column 0 is the pair's own node and column 1 + z the comparator z.
    p, col = np.nonzero(np.column_stack([var_of[x, y] >= 0, (var_of[x] >= 0) & (var_of[y] >= 0)]))
    x, y, z, direct = x[p], y[p], col - 1, col == 0
    a = np.where(direct, var_of[x, y], var_of[x, z])
    b = np.where(direct, -1, var_of[y, z])
    return factor_rows("objsim", a, b, np.where(direct, 0, np.where((x < z) == (y < z), SOFT, FLIPPED)))


def add_attribute_factors(build: Build, dataset: KnowledgeDataset, cfg: BuildConfig) -> Build:
    """Cross-attribute frame coupling, gated on seed-label agreement."""
    attrs = build.attributes
    chunks = []
    with dataset.audit_label_access({"seed"}):
        for i in range(len(attrs)):
            for j in range(i + 1, len(attrs)):
                a, b = attrs[i], attrs[j]
                seeds = dataset.frames_in("seed")
                shared = [it for it in seeds if dataset.has_label(it, a) and dataset.has_label(it, b)]
                if len(shared) < cfg.min_shared_seed_frames:
                    continue
                agree = sum(1 for it in shared if dataset.gold(it, a) == dataset.gold(it, b))
                if agree / len(shared) < cfg.attr_agreement_threshold:
                    continue
                var_a, var_b = build.item_vars[0][:, i], build.item_vars[0][:, j]
                both = (var_a >= 0) & (var_b >= 0)
                chunks.append(factor_rows("attrsim", var_a[both], var_b[both]))
    build.add(chunks)
    return build


def build(
    attributes,
    dataset: KnowledgeDataset,
    emb: Optional[Embeddings],
    stats: Optional[CooccurrenceStats],
    models: Optional[TrainedModels],
    cfg: BuildConfig = BuildConfig(),
) -> Build:
    """Full graph assembly over the requested attribute(s)."""
    result = make_nodes(dataset, attributes)
    if cfg.enabled("seed") or cfg.enabled("emb"):
        add_seed_and_emb_factors(result, dataset, models, cfg)
    if cfg.enabled("selpref"):
        if stats is None:
            raise ValueError("selpref factors requested but no co-occurrence stats supplied")
        add_selectional_preference_factors(result, stats, cfg)
    if cfg.enabled("verbsim") or cfg.enabled("framesim") or cfg.enabled("objsim"):
        if emb is None:
            raise ValueError("similarity factors requested but no embeddings supplied")
        add_similarity_factors(result, emb, cfg)
    if cfg.enabled("attrsim") and len(result.attributes) > 1:
        add_attribute_factors(result, dataset, cfg)
    return result
