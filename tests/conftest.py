import os
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

from physrel.core import ATTRIBUTES, N_VALUES, TOKEN_OF_RELATION, Attribute
from physrel.harness import DataPaths
from physrel.lexstats import SPLITS, CooccurrenceStats, FrameItem, KnowledgeDataset, PairItem
from physrel.builder import NODE_CLASSES, featurize_items
from physrel import factorgraph
from physrel.factorgraph import BPConfig, BPResult, _normalize_rows_log
from physrel.maxent import TrainConfig, gradients, train
from physrel.synthetic import generate_world

# Released-data reproduction tests look here; they skip when absent.
RELEASED_DATA_DIR = Path(os.environ.get("PHYSREL_DATA_DIR", Path(__file__).resolve().parents[1] / "data" / "released"))


def released_data_available() -> bool:
    try:
        paths = DataPaths.from_dir(RELEASED_DATA_DIR)
    except Exception:
        return False
    return all(
        Path(p).exists()
        for p in (paths.frames_5, paths.frames_20, paths.pairs_5, paths.pairs_20)
    )


@pytest.fixture(scope="session")
def world(tmp_path_factory):
    """Deterministic synthetic world shared by the heavier tests."""
    directory = tmp_path_factory.mktemp("world")
    return generate_world(directory, rng_seed=0)


def cooccurrence(joint: dict) -> CooccurrenceStats:
    """Stats from {(frame_key, (x, y)): count}."""
    rows = [(frame_key, x, y, count) for (frame_key, (x, y)), count in joint.items()]
    return CooccurrenceStats(*([row[i] for row in rows] for i in range(4)))


def entries(stats: CooccurrenceStats) -> list[tuple[str, tuple[str, str], int]]:
    """All (frame_key, pair, count) triples of ``stats``, in its sorted column order."""
    columns = zip(stats.frame.tolist(), stats.x.tolist(), stats.y.tolist(), stats.count.tolist())
    return [(stats.frames[f], (stats.objects[x], stats.objects[y]), count) for f, x, y, count in columns]


def entry_row(stats: CooccurrenceStats, frame_key: str, pair: tuple[str, str]) -> int:
    """The entry of (frame_key, pair), or -1 if there is none."""
    return next((row for row, (f, p, _) in enumerate(entries(stats)) if (f, p) == (frame_key, pair)), -1)


def joint_count(stats: CooccurrenceStats, frame_key: str, pair: tuple[str, str]) -> int:
    row = entry_row(stats, frame_key, pair)
    return int(stats.count[row]) if row >= 0 else 0


def pmi(stats: CooccurrenceStats, frame_key: str, pair: tuple[str, str]) -> float:
    """Natural-log PMI of one (frame, pair), by ``entry_pmi``; -inf when the
    joint count is zero, ValueError when a marginal is."""
    c_f = sum(count for f, _, count in entries(stats) if f == frame_key)
    c_p = sum(count for _, p, count in entries(stats) if p == pair)
    if c_f <= 0 or c_p <= 0:
        raise ValueError(f"zero marginal count for ({frame_key!r}, {pair!r})")
    row = entry_row(stats, frame_key, pair)
    return float(stats.entry_pmi([row])[0]) if row >= 0 else float("-inf")


def make_dataset(frames=(), pairs=()):
    """Hand-built dataset: frames as (verb, type, prep, split, labels),
    pairs as (x, y, split, labels) with labels {Attribute: RelationValue}."""
    def label_row(labels) -> list[int]:
        return [int(labels[a]) if a in labels else -1 for a in ATTRIBUTES]

    frame_items = [FrameItem(verb, ftype, prep, split) for verb, ftype, prep, split, _ in frames]
    pair_items = [PairItem(x, y, split) for x, y, split, _ in pairs]
    frame_labels = [label_row(f[-1]) for f in frames]
    pair_labels = [label_row(p[-1]) for p in pairs]
    return KnowledgeDataset(frame_items, frame_labels, pair_items, pair_labels)


# -- reference helpers the tests compare the library against --


def cosine(u, v) -> float:
    """Scalar cosine similarity; 0.0 when either vector has zero norm."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def loss_and_grad(weights, bias, X, y, l2_lambda: float):
    """Mean NLL of the labels y + 0.5*lambda*||W||^2 (bias unregularized),
    and the gradients maxent.gradients gives for it."""
    probs, grad_w, grad_b = gradients(weights, bias, X, np.eye(3)[y], l2_lambda)
    nll = -np.log(probs[np.arange(X.shape[0]), y]).mean()
    return float(nll + 0.5 * l2_lambda * float((weights * weights).sum())), grad_w, grad_b


def one_descent_per_model(dataset, emb, cfg: TrainConfig = TrainConfig()) -> dict:
    """The classifiers as they were trained before attributes shared a
    descent: one ``train`` per (attribute, node class) with seed labels,
    attribute by attribute, frames before pairs."""
    models = {}
    with dataset.audit_label_access({"seed"}):
        for attribute in ATTRIBUTES:
            for kind, node_class in NODE_CLASSES.items():
                rows = dataset.rows_in(kind, "seed")
                y = dataset.gold_rows(kind, rows)[:, ATTRIBUTES.index(attribute)]
                if (y >= 0).any():
                    X = featurize_items(kind, [getattr(dataset, kind)[r] for r in rows[y >= 0]], emb)
                    models[(attribute, node_class)] = train(X, y[y >= 0], cfg, attribute, node_class)
    return models


def variable(graph, node) -> int:
    """The id of ``node``'s variable in ``graph``."""
    return next(vid for vid in range(graph.n_variables) if graph.node_of(vid) == node)


def size_only_copies(paths: DataPaths, directory) -> DataPaths:
    """``paths`` with its four label files replaced by copies in ``directory``
    that keep every line but the rows labeling another attribute than size."""
    def kept(line: str) -> bool:
        return not line.strip() or line.startswith("#") or Attribute.from_token(line.split("\t")[-3]) is Attribute.SIZE

    copies = {}
    for name in ("frames_5", "frames_20", "pairs_5", "pairs_20"):
        source = getattr(paths, name)
        with open(source, encoding="utf-8") as handle:
            text = "".join(filter(kept, handle))
        copies[name] = Path(directory) / source.name
        copies[name].write_text(text, encoding="utf-8")
    return replace(paths, **copies)


def save_dataset(dataset, frame_file, pair_file) -> None:
    """Write a dataset in the canonical TSV form: items in key order, each
    item's labels in attribute order, pairs in canonical orientation."""
    def rows(items, columns) -> str:
        return "".join(
            "\t".join([*columns(it), a.value, TOKEN_OF_RELATION[dataset.gold(it, a)], it.split]) + "\n"
            for it in items
            for a in ATTRIBUTES
            if dataset.has_label(it, a)
        )

    frame_text = rows(dataset.frames, lambda it: (it.verb, it.frame_type, it.preposition or "-"))
    Path(frame_file).write_text(frame_text, encoding="utf-8")
    Path(pair_file).write_text(rows(dataset.pairs, lambda it: (it.x, it.y)), encoding="utf-8")


def split_counts(dataset) -> dict[str, dict[str, int]]:
    """Item count per split, frames and pairs."""
    return {kind: {s: len(dataset.rows_in(kind, s)) for s in SPLITS} for kind in ("frames", "pairs")}


def usable_counts(dataset) -> dict[str, dict[str, int]]:
    """Per attribute, the items that carry a label for it."""
    return {
        name: {a.value: sum(dataset.has_label(it, a) for it in items) for a in ATTRIBUTES}
        for name, items in (("frames", dataset.frames), ("pairs", dataset.pairs))
    }


class Factor(NamedTuple):
    """One factor of a graph, as the tests read it."""

    id: int
    kind: str
    scope: tuple[int, ...]
    table: np.ndarray

    @property
    def arity(self) -> int:
        return len(self.scope)


def factors(graph) -> list[Factor]:
    """Every factor of ``graph`` in id order, read from its columns and bank."""
    kind, scope, table, rows = graph.columns()
    return [
        Factor(fid, graph.kinds[k], (a,), rows[t]) if b == -1 else Factor(fid, graph.kinds[k], (a, b), graph.bank[t])
        for fid, (k, (a, b), t) in enumerate(zip(kind.tolist(), scope.tolist(), table.tolist()))
    ]


def reference_dump_graph(graph) -> str:
    """The line-at-a-time text that the block-formatting ``dump_graph``
    replaced: one f-string per variable and per factor."""
    kind, scope, table, rows = graph.columns()
    values = [" ".join(map(repr, t)) for t in rows.tolist() + [t.ravel().tolist() for t in graph.bank]]
    value_of = np.where(scope[:, 1] == -1, table, len(rows) + table)
    lines = [f"var\t{vid}\t{graph.node_of(vid)}\n" for vid in range(graph.n_variables)]
    lines += [
        f"factor\t{fid}\t{graph.kinds[k]}\t{a if b == -1 else f'{a},{b}'}\t{values[t]}\n"
        for fid, (k, (a, b), t) in enumerate(zip(kind.tolist(), scope.tolist(), value_of.tolist()))
    ]
    return "".join(lines)


def _sum_by_variable(variables: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(3, n) per-variable sums of the (3, k) value-major ``values``."""
    return np.stack([np.bincount(variables, weights=row, minlength=n) for row in values], dtype=float)


def reference_run_bp(graph, config: BPConfig = BPConfig(), scaled_trace: Optional[list] = None) -> BPResult:
    """``run_bp``'s loop without freezing: every binary factor is updated in
    every iteration. Each iteration's scaled totals are appended to
    ``scaled_trace`` when one is given."""
    n = graph.n_variables
    if n == 0:
        raise ValueError("graph has no variables")
    _, scope, table, rows = graph.columns()
    unary = scope[:, 1] == -1
    base = _sum_by_variable(scope[unary, 0], np.log(rows / rows.sum(axis=1, keepdims=True))[table[unary]].T, n)
    binary = np.flatnonzero(~unary)
    binary = binary[np.argsort(table[binary], kind="stable")]
    tids, b = table[binary], len(binary)
    if b == 0:
        return BPResult(_normalize_rows_log(base.T), True, 1, [0.0])
    edge_var = np.concatenate([scope[binary, 0], scope[binary, 1]])
    starts = np.flatnonzero(np.diff(tids, prepend=-1))
    blocks = []
    for lo in range(0, b, factorgraph.BP_BLOCK):
        hi = min(lo + factorgraph.BP_BLOCK, b)
        cuts = [lo, *starts[(starts > lo) & (starts < hi)].tolist(), hi]
        blocks.append((lo, hi, [(s - lo, e - lo, graph.bank[tids[s]]) for s, e in zip(cuts, cuts[1:])]))
    del binary, tids, starts

    f2v = [np.full((N_VALUES, 2 * (hi - lo)), 1.0 / N_VALUES) for lo, hi, _ in blocks]
    v2f = [block.copy() for block in f2v]
    size = factorgraph.BP_BLOCK
    new, diff, row = np.empty((N_VALUES, size)), np.empty((N_VALUES, size)), np.empty(size)

    def update(old: np.ndarray, cols: slice, raw: np.ndarray) -> float:
        k = raw.shape[1]
        np.add(np.add(raw[0], raw[1], out=row[:k]), raw[2], out=row[:k])
        raw /= row[:k]
        if config.damping:
            raw *= 1.0 - config.damping
            raw += np.multiply(old[:, cols], config.damping, out=diff[:, :k])
        np.subtract(raw, old[:, cols], out=diff[:, :k])
        old[:, cols] = raw
        return max(diff[:, :k].max(), -diff[:, :k].min())

    totals = base + np.log(1.0 / N_VALUES) * np.bincount(edge_var, minlength=n)
    residuals: list[float] = []
    for _ in range(config.max_iterations):
        scaled = np.exp(totals - totals.max(axis=0))
        if scaled_trace is not None:
            scaled_trace.append(scaled)
        totals = base.copy()
        delta = 0.0
        for (lo, hi, runs), to_var, to_factor in zip(blocks, f2v, v2f):
            raw, k = new[:, : hi - lo], hi - lo
            slot0, slot1 = slice(0, k), slice(k, 2 * k)
            slots = ((slot0, slot1, edge_var[lo:hi], False), (slot1, slot0, edge_var[b + lo : b + hi], True))
            for cols, _, variables, _ in slots:
                for value in range(N_VALUES):
                    np.take(scaled[value], variables, out=raw[value])
                raw /= to_var[:, cols]
                delta = max(delta, update(to_factor, cols, raw))
            for cols, opposite, variables, flip in slots:
                for s, e, table in runs:
                    np.matmul(table.T if flip else table, to_factor[:, opposite][:, s:e], out=raw[:, s:e])
                delta = max(delta, update(to_var, cols, raw))
                totals += _sum_by_variable(variables, np.log(to_var[:, cols], out=diff[:, :k]), n)
        residuals.append(float(delta))
        if delta < config.convergence_eps:
            break

    marginals = _normalize_rows_log(totals.T)
    for var in np.flatnonzero(~np.isfinite(marginals).all(axis=1))[:1].tolist():
        raise ValueError(
            f"belief of variable {var} ({graph.node_of(var)!r}) is not finite: "
            "a table's range underflows the messages"
        )
    converged = residuals[-1] < config.convergence_eps
    return BPResult(marginals, converged, len(residuals), residuals)
