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
moves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ATTRIBUTES, Attribute, RelationValue, TOKEN_OF_RELATION, flip
from .harness import DataPaths, OBJECT_EMBEDDING_DIM, VERB_EMBEDDING_DIM

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


def generate_world(
    out_dir,
    rng_seed: int = 0,
    n_objects: int = 30,
    n_verbs: int = 12,
    n_pairs: int = 140,
) -> World:
    # Imported here so that importing the package leaves the CLI module
    # unloaded: ``python -m physrel.cli`` would otherwise run it twice.
    from .cli import write_outputs

    def write(path, lines: list[str]) -> None:
        write_outputs(out_dir, {path.name: "\n".join(lines) + "\n"})

    rng = np.random.default_rng(rng_seed)

    objects = [f"o{i:02d}" for i in range(n_objects)]
    base = rng.permutation(np.linspace(0.0, 1.0, n_objects))
    scores: dict[Attribute, dict[str, float]] = {}
    for attribute in ATTRIBUTES:
        noise = rng.normal(scale=_ATTR_NOISE[attribute], size=n_objects)
        raw = (1.0 - base) if attribute is Attribute.SPEED else base
        scores[attribute] = {o: float(raw[i] + noise[i]) for i, o in enumerate(objects)}

    def relation(x: str, y: str, attribute: Attribute) -> RelationValue:
        diff = scores[attribute][x] - scores[attribute][y]
        if abs(diff) <= EQ_BAND:
            return RelationValue.EQ
        return RelationValue.GT if diff > 0 else RelationValue.LT

    # -- verbs and frames: the first half imply "agent dominates" (GT on
    # everything except speed), the second half the reverse.
    verbs = [f"v{i:02d}" for i in range(n_verbs)]
    profile: dict[str, dict[Attribute, RelationValue]] = {}
    for i, verb in enumerate(verbs):
        dominant = i < n_verbs // 2
        labels = {}
        for attribute in ATTRIBUTES:
            gt_side = dominant == (attribute is not Attribute.SPEED)
            labels[attribute] = RelationValue.GT if gt_side else RelationValue.LT
        profile[verb] = labels

    frames = []  # (verb, frame_type, prep or None)
    for i, verb in enumerate(verbs):
        frames.append((verb, "dobj", None))
        frames.append((verb, "pobj", PREPOSITIONS[i % 3]))
        frames.append((verb, "dobj_pobj", "with"))

    # -- splits. Frames are partitioned by verb; verbs are interleaved over
    # the two implication types so a tiny seed set still sees both. Both
    # profiles share the test half; the 20% seed extends the 5% seed.
    def split_schedule(n: int, seed5: int, seed20: int, n_test: int) -> tuple[list[str], list[str]]:
        s5, s20 = [], []
        for i in range(n):
            if i >= n - n_test:
                s5.append("test")
                s20.append("test")
            else:
                s5.append("seed" if i < seed5 else "dev")
                s20.append("seed" if i < seed20 else "dev")
        return s5, s20

    half = n_verbs // 2
    dominant_order = list(rng.permutation(verbs[:half]))
    other_order = list(rng.permutation(verbs[half:]))
    verb_order = [v for duo in zip(dominant_order, other_order) for v in duo]
    v5, v20 = split_schedule(n_verbs, max(1, round(0.05 * n_verbs)), max(1, round(0.20 * n_verbs)), n_verbs // 2)
    verb_split5 = dict(zip(verb_order, v5))
    verb_split20 = dict(zip(verb_order, v20))

    all_pairs = [(objects[i], objects[j]) for i in range(n_objects) for j in range(i + 1, n_objects)]
    chosen = rng.choice(len(all_pairs), size=n_pairs, replace=False)
    pairs = [all_pairs[k] for k in sorted(chosen)]
    shuffled = [pairs[k] for k in rng.permutation(n_pairs)]
    p5, p20 = split_schedule(n_pairs, max(1, round(0.05 * n_pairs)), max(1, round(0.20 * n_pairs)), n_pairs // 2)
    pair_split5 = dict(zip(shuffled, p5))
    pair_split20 = dict(zip(shuffled, p20))

    # -- label presence and row orientation are decided once per item and
    # attribute (they model collection noise, which does not depend on the
    # split), so both profile files label exactly the same rows.
    frame_labeled = {
        ((verb, ftype, prep), attribute): rng.random() >= DROP_LABEL_RATE
        for verb, ftype, prep in frames
        for attribute in ATTRIBUTES
    }
    pair_labeled = {
        (pair, attribute): rng.random() >= DROP_LABEL_RATE for pair in pairs for attribute in ATTRIBUTES
    }
    pair_reversed = {
        (pair, attribute): rng.random() < 0.3 for pair in pairs for attribute in ATTRIBUTES
    }
    # Seed items never lose labels, so every attribute keeps training data.
    for verb, ftype, prep in frames:
        if verb_split5[verb] == "seed" or verb_split20[verb] == "seed":
            for attribute in ATTRIBUTES:
                frame_labeled[((verb, ftype, prep), attribute)] = True
    for pair in pairs:
        if pair_split5[pair] == "seed" or pair_split20[pair] == "seed":
            for attribute in ATTRIBUTES:
                pair_labeled[(pair, attribute)] = True

    def frame_rows(split_of: dict[str, str]) -> list[str]:
        rows = []
        for verb, ftype, prep in frames:
            for attribute in ATTRIBUTES:
                if not frame_labeled[((verb, ftype, prep), attribute)]:
                    continue
                rel = TOKEN_OF_RELATION[profile[verb][attribute]]
                rows.append(f"{verb}\t{ftype}\t{prep or '-'}\t{attribute.value}\t{rel}\t{split_of[verb]}")
        return rows

    def pair_rows(split_of: dict[tuple[str, str], str]) -> list[str]:
        # Reversed rows exercise loader canonicalization on realistic input.
        rows = []
        for pair in pairs:
            x, y = pair
            for attribute in ATTRIBUTES:
                if not pair_labeled[(pair, attribute)]:
                    continue
                rel = relation(x, y, attribute)
                if pair_reversed[(pair, attribute)]:
                    rows.append(f"{y}\t{x}\t{attribute.value}\t{TOKEN_OF_RELATION[flip(rel)]}\t{split_of[pair]}")
                else:
                    rows.append(f"{x}\t{y}\t{attribute.value}\t{TOKEN_OF_RELATION[rel]}\t{split_of[pair]}")
        return rows

    paths = DataPaths.from_dir(out_dir)
    write(paths.frames_5, frame_rows(verb_split5))
    write(paths.frames_20, frame_rows(verb_split20))
    write(paths.pairs_5, pair_rows(pair_split5))
    write(paths.pairs_20, pair_rows(pair_split20))

    # -- embeddings. Object vectors carry the five scores in their leading
    # dimensions; verb vectors carry the implication sign. Cosine therefore
    # tracks latent similarity without being a perfect oracle.
    obj_lines = []
    for o in objects:
        signal = 3.0 * (np.array([scores[a][o] for a in ATTRIBUTES]) - 0.5)
        noise = 0.15 * rng.normal(size=OBJECT_EMBEDDING_DIM - len(ATTRIBUTES))
        vec = np.concatenate([signal, noise])
        obj_lines.append(o + " " + " ".join(f"{v:.6f}" for v in vec))
    for extra in PREPOSITIONS + ("person",):
        vec = 0.3 * rng.normal(size=OBJECT_EMBEDDING_DIM)
        obj_lines.append(extra + " " + " ".join(f"{v:.6f}" for v in vec))
    write(paths.object_embeddings, obj_lines)

    verb_lines = []
    for i, verb in enumerate(verbs):
        sign = 1.0 if i < n_verbs // 2 else -1.0
        vec = np.concatenate([[3.0 * sign], 0.2 * rng.normal(size=VERB_EMBEDDING_DIM - 1)])
        verb_lines.append(verb + " " + " ".join(f"{v:.6f}" for v in vec))
    write(paths.verb_embeddings, verb_lines)

    # -- co-occurrence. Evidence orientation follows the latent magnitude:
    # dominant-type frames see (larger, smaller) argument pairs, the other
    # type the reverse. Near-equal pairs mostly stay out of dominance
    # frames; a few flipped duplicates exercise orientation-conflict
    # resolution in the builder.
    cooc_lines = []
    frame_keys = [f"{v}:{t}:{p or '-'}" for v, t, p in frames]
    dominant_of = {fk: verbs.index(fk.split(":")[0]) < n_verbs // 2 for fk in frame_keys}
    for pair in pairs:
        x, y = pair
        gap = scores[Attribute.SIZE][x] - scores[Attribute.SIZE][y]
        if abs(gap) <= 2 * EQ_BAND and rng.random() < 0.7:
            continue
        n_seen = int(rng.integers(3, 7))
        for k in sorted(rng.choice(len(frame_keys), size=n_seen, replace=False)):
            fk = frame_keys[k]
            bigger, smaller = (x, y) if gap > 0 else (y, x)
            arg1, arg2 = (bigger, smaller) if dominant_of[fk] else (smaller, bigger)
            count = int(rng.integers(4, 40))
            cooc_lines.append(f"{fk}\t{arg1}\t{arg2}\t{count}")
            if rng.random() < 0.05:
                cooc_lines.append(f"{fk}\t{arg2}\t{arg1}\t{max(1, count // 4)}")
    write(paths.cooccurrence, cooc_lines)

    return World(paths, objects, verbs, scores)
