"""Deterministic synthetic world for end-to-end checks and demos.

Builds a small universe of objects with known latent attribute scores and
verbs with known physical implications, then writes every input file the
pipeline consumes: label TSVs at both split profiles, embedding files whose
geometry reflects the latent scores, and frame/pair co-occurrence counts
whose orientation follows the latent order. Ground truth is recoverable, so
held-out accuracy of the full pipeline is a meaningful oracle.

Everything is a pure function of ``rng_seed``; regenerating into the same
directory reproduces the files byte for byte. The two split profiles label
exactly the same rows and share the test half; only seed/dev membership
moves. Each file is written a piece at a time as it is formatted, so no
file's text or list of lines is held whole.

The files stay byte-identical across versions of this module only while the
order of draws from the one generator stays as it is. A ``random`` or
``normal`` draw of ``size=k`` gives the same numbers as k scalar draws, so
arrays may replace loops, but the order is fixed:

1. the permutation of the objects' shared latent magnitudes;
2. one normal per (attribute, object), attribute-major;
3. the permutation of the dominant verbs, then of the others;
4. the chosen pairs (``choice`` without replacement), then their shuffle;
5. one uniform per (frame, attribute) for label presence, then per
   (pair, attribute) for label presence, then per (pair, attribute) for
   row orientation;
6. embedding noise for the objects, then the extra words, then the verbs;
7. co-occurrence, pair by pair as its file is written, one scalar draw at a
   time: the near-equal skip (near-equal pairs only), the frame count, the
   frames, and per frame its count and the flipped-duplicate draw.
   ``integers`` takes 32-bit halves where ``random`` takes 64 bits, so these
   cannot be batched.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .core import ATTRIBUTES, FLIP_INDEX, Attribute, RelationValue, TOKEN_OF_RELATION, format_frame_key
from .factorgraph import TEXT_BLOCK
from .harness import DataPaths, OBJECT_EMBEDDING_DIM, VERB_EMBEDDING_DIM
from .lexstats import SPLIT_CODE, SPLITS

PREPOSITIONS = ("into", "onto", "over", "with")

# Per-attribute noise applied to the shared latent magnitude; speed runs
# against it (small things are quick).
_ATTR_NOISE = {
    Attribute.SIZE: 0.01,
    Attribute.WEIGHT: 0.03,
    Attribute.STRENGTH: 0.06,
    Attribute.RIGIDNESS: 0.06,
    Attribute.SPEED: 0.03,
}

# Latent scores this close make an EQ pair; the chance that an item outside
# the seed loses its label along one attribute.
EQ_BAND = 0.012
DROP_LABEL_RATE = 0.08


@dataclass
class World:
    paths: DataPaths
    objects: list[str]
    verbs: list[str]
    scores: dict[Attribute, dict[str, float]]


def _split_schedule(n: int) -> np.ndarray:
    """Split codes of n shuffled items by position, at the 5% and 20% profiles
    (one row each): the last n // 2 are test, the first 5% (20%) seed."""
    n_seed = np.array([[max(1, round(0.05 * n))], [max(1, round(0.20 * n))]])
    schedule = np.where(np.arange(n) < n_seed, SPLIT_CODE["seed"], SPLIT_CODE["dev"])
    schedule[:, n - n // 2 :] = SPLIT_CODE["test"]
    return schedule


def generate_world(out_dir, rng_seed: int = 0, n_objects: int = 30, n_verbs: int = 12, n_pairs: int = 140) -> World:
    max_pairs = n_objects * (n_objects - 1) // 2
    if n_objects < 0:
        raise ValueError(f"n_objects must be >= 0, not {n_objects}")
    if n_verbs < 1:
        raise ValueError(f"n_verbs must be >= 1, not {n_verbs}")
    if not 0 <= n_pairs <= max_pairs:
        raise ValueError(f"n_pairs must be in [0, {max_pairs}] for {n_objects} objects, not {n_pairs}")
    # Imported here so that importing the package leaves the CLI module
    # unloaded: ``python -m physrel.cli`` would otherwise run it twice.
    from .cli import write_outputs

    def write(path, pieces: Iterable[str]) -> None:
        # Pieces of whole lines, each written as it is made; a file without lines is one newline.
        pieces = iter(pieces)
        write_outputs(out_dir, {path.name: chain([next(pieces, "\n")], pieces)})

    rng = np.random.default_rng(rng_seed)
    paths = DataPaths.from_dir(out_dir)

    # -- latent scores, one row per attribute.
    objects = [f"o{i:02d}" for i in range(n_objects)]
    base = rng.permutation(np.linspace(0.0, 1.0, n_objects))
    is_speed = np.array([a is Attribute.SPEED for a in ATTRIBUTES])
    noise = rng.normal(scale=[[_ATTR_NOISE[a]] for a in ATTRIBUTES], size=(len(ATTRIBUTES), n_objects))
    latent = np.where(is_speed[:, None], 1.0 - base, base) + noise
    scores = {a: dict(zip(objects, row)) for a, row in zip(ATTRIBUTES, latent.tolist())}

    # -- verbs and frames: the first half imply "agent dominates" (GT on
    # everything except speed), the second half the reverse.
    verbs = [f"v{i:02d}" for i in range(n_verbs)]
    half = n_verbs // 2
    dominant = np.arange(n_verbs) < half
    frame_relation = np.where(dominant[:, None] != is_speed, RelationValue.GT, RelationValue.LT).repeat(3, axis=0)
    frames = [
        (verb, ftype, prep)
        for i, verb in enumerate(verbs)
        for ftype, prep in (("dobj", None), ("pobj", PREPOSITIONS[i % 3]), ("dobj_pobj", "with"))
    ]

    # -- splits. Frames are partitioned by verb; verbs are interleaved over
    # the two implication types so a tiny seed set still sees both (an odd
    # count's last verb comes last). Both profiles share the test half; the
    # 20% seed extends the 5% seed. Each split array has one row per profile.
    first, second = rng.permutation(half), half + rng.permutation(n_verbs - half)
    verb_order = np.append(np.column_stack([first, second[:half]]), second[half:])
    verb_split = np.empty((2, n_verbs), dtype=int)
    verb_split[:, verb_order] = _split_schedule(n_verbs)
    frame_split = verb_split.repeat(3, axis=1)

    xs, ys = np.triu_indices(n_objects, k=1)
    # A mask keeps the chosen pairs in index order without np.sort, whose SIMD
    # code (256 KiB of resident library pages) nothing else in a run calls.
    chosen = np.bincount(rng.choice(len(xs), size=n_pairs, replace=False), minlength=len(xs)) > 0
    px, py = xs[chosen], ys[chosen]
    pair_split = np.empty((2, n_pairs), dtype=int)
    pair_split[:, rng.permutation(n_pairs)] = _split_schedule(n_pairs)
    diff = (latent[:, px] - latent[:, py]).T
    pair_relation = np.where(diff > 0, RelationValue.GT, RelationValue.LT)
    pair_relation[np.abs(diff) <= EQ_BAND] = RelationValue.EQ

    # -- label presence and row orientation are decided once per item and
    # attribute (they model collection noise, which does not depend on the
    # split), so both profile files label exactly the same rows. Seed items
    # never lose labels, so every attribute keeps training data.
    frame_labeled = rng.random((len(frames), len(ATTRIBUTES))) >= DROP_LABEL_RATE
    pair_labeled = rng.random((n_pairs, len(ATTRIBUTES))) >= DROP_LABEL_RATE
    pair_reversed = rng.random((n_pairs, len(ATTRIBUTES))) < 0.3
    frame_labeled[(frame_split == SPLIT_CODE["seed"]).any(axis=0)] = True
    pair_labeled[(pair_split == SPLIT_CODE["seed"]).any(axis=0)] = True

    names = [a.value for a in ATTRIBUTES]
    tokens = [TOKEN_OF_RELATION[r] for r in RelationValue]

    def label_rows(heads: list[str], head_index, attribute, relation, split) -> Iterator[str]:
        """One profile's label file, ``TEXT_BLOCK`` rows at a time; a row per labeled
        (item, attribute): ``heads[head_index]``, the attribute, the relation token and the split."""
        for lo in range(0, len(head_index), TEXT_BLOCK):
            columns = (c[lo : lo + TEXT_BLOCK].tolist() for c in (head_index, attribute, relation, split))
            yield "".join(f"{heads[h]}\t{names[a]}\t{tokens[r]}\t{SPLITS[s]}\n" for h, a, r, s in zip(*columns))

    item, attribute = np.nonzero(frame_labeled)
    frame_heads = [f"{verb}\t{ftype}\t{prep or '-'}" for verb, ftype, prep in frames]
    relation = frame_relation[item, attribute]
    for path, split in zip((paths.frames_5, paths.frames_20), frame_split[:, item]):
        write(path, label_rows(frame_heads, item, attribute, relation, split))
    # Reversed rows (odd heads) exercise loader canonicalization on realistic input.
    item, attribute = np.nonzero(pair_labeled)
    turned = pair_reversed[item, attribute]
    relation = pair_relation[item, attribute]
    relation = np.where(turned, FLIP_INDEX[relation], relation)
    pair_heads = []
    for x, y in zip(px.tolist(), py.tolist()):
        pair_heads += [f"{objects[x]}\t{objects[y]}", f"{objects[y]}\t{objects[x]}"]
    for path, split in zip((paths.pairs_5, paths.pairs_20), pair_split[:, item]):
        write(path, label_rows(pair_heads, 2 * item + turned, attribute, relation, split))

    # -- embeddings. Object vectors carry the five scores in their leading
    # dimensions; verb vectors carry the implication sign. Cosine therefore
    # tracks latent similarity without being a perfect oracle.
    def embedding_lines(words, vectors: np.ndarray) -> Iterator[str]:
        line = "%s" + " %.6f" * vectors.shape[1] + "\n"
        return (line % (word, *vector) for word, vector in zip(words, vectors.tolist()))

    object_noise = 0.15 * rng.normal(size=(n_objects, OBJECT_EMBEDDING_DIM - len(ATTRIBUTES)))
    object_lines = embedding_lines(objects, np.hstack([3.0 * (latent.T - 0.5), object_noise]))
    extras = PREPOSITIONS + ("person",)
    extra_lines = embedding_lines(extras, 0.3 * rng.normal(size=(len(extras), OBJECT_EMBEDDING_DIM)))
    write(paths.object_embeddings, chain(object_lines, extra_lines))
    verb_noise = 0.2 * rng.normal(size=(n_verbs, VERB_EMBEDDING_DIM - 1))
    verb_sign = np.where(dominant, 3.0, -3.0)[:, None]
    write(paths.verb_embeddings, embedding_lines(verbs, np.hstack([verb_sign, verb_noise])))

    # -- co-occurrence. Evidence orientation follows the latent magnitude:
    # dominant-type frames see (larger, smaller) argument pairs, the other
    # type the reverse. Near-equal pairs mostly stay out of dominance
    # frames; a few flipped duplicates exercise orientation-conflict
    # resolution in the builder. The lines are drawn as they are written.
    frame_keys = [format_frame_key(*frame) for frame in frames]
    frame_dominant = dominant.repeat(3).tolist()

    def cooccurrence_lines() -> Iterator[str]:
        size_gap = diff[:, ATTRIBUTES.index(Attribute.SIZE)].tolist()
        for x, y, gap in zip(px.tolist(), py.tolist(), size_gap):
            if abs(gap) <= 2 * EQ_BAND and rng.random() < 0.7:
                continue
            n_seen = min(int(rng.integers(3, 7)), len(frame_keys))  # one verb has 3 frames
            bigger, smaller = (objects[x], objects[y]) if gap > 0 else (objects[y], objects[x])
            for k in sorted(rng.choice(len(frame_keys), size=n_seen, replace=False).tolist()):
                arg1, arg2 = (bigger, smaller) if frame_dominant[k] else (smaller, bigger)
                count = int(rng.integers(4, 40))
                yield f"{frame_keys[k]}\t{arg1}\t{arg2}\t{count}\n"
                if rng.random() < 0.05:
                    yield f"{frame_keys[k]}\t{arg2}\t{arg1}\t{max(1, count // 4)}\n"

    write(paths.cooccurrence, cooccurrence_lines())

    return World(paths, objects, verbs, scores)
