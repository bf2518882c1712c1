import os
from pathlib import Path

import pytest

from physrel.harness import DataPaths
from physrel.lexstats import FrameItem, KnowledgeDataset, PairItem
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


def make_dataset(frames=(), pairs=(), frame_profile="5/45/50", pair_profile="5/45/50"):
    """Hand-built dataset: frames as (verb, type, prep, split, labels),
    pairs as (x, y, split, labels) with labels {Attribute: RelationValue}."""
    frame_items, frame_labels = [], {}
    for verb, ftype, prep, split, labels in frames:
        item = FrameItem(verb, ftype, prep, split)
        frame_items.append(item)
        frame_labels[item.key] = dict(labels)
    pair_items, pair_labels = [], {}
    for x, y, split, labels in pairs:
        item = PairItem(x, y, split)
        pair_items.append(item)
        pair_labels[item.key] = dict(labels)
    return KnowledgeDataset(frame_items, pair_items, frame_labels, pair_labels, frame_profile, pair_profile)
