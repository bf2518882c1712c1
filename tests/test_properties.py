"""Property tests of the text formats: graph dumps and label files."""
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from physrel.core import ATTRIBUTES, FRAME_TYPES, TOKEN_OF_RELATION, RelationValue, flip
from physrel.factorgraph import FactorGraph, dump_graph, load_graph
from physrel.lexstats import SPLITS, load_dataset, save_dataset

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# Names free of the separators and line breaks the formats split on.
names = st.text(string.ascii_letters + string.digits + ":|-_ ", min_size=1, max_size=8)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw) -> FactorGraph:
    graph = FactorGraph()
    for node in draw(st.lists(names, min_size=1, max_size=6, unique=True)):
        graph.add_variable(node)
    n = graph.n_variables
    for _ in range(draw(st.integers(0, 8))):
        scope = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
        table = draw(st.lists(positive, min_size=3 ** len(scope), max_size=3 ** len(scope)))
        graph.add_factor(scope, np.reshape(table, (3,) * len(scope)), kind=draw(names))
    return graph


@PROPERTY_SETTINGS
@given(graphs())
def test_dump_load_dump_is_identity(graph):
    text = dump_graph(graph)
    assert dump_graph(load_graph(text)) == text


@PROPERTY_SETTINGS
@given(graphs(), st.data())
def test_load_rejects_any_changed_record_id(graph, data):
    lines = dump_graph(graph).splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    record, old_id, rest = lines[index].split("\t", 2)
    new_id = data.draw(st.integers(0, 20).filter(lambda i: i != int(old_id)))
    lines[index] = f"{record}\t{new_id}\t{rest}"
    with pytest.raises(ValueError, match=f"^line {index + 1}: "):
        load_graph("\n".join(lines) + "\n")


relations = st.sampled_from(list(RelationValue))


@st.composite
def label_rows(draw) -> tuple[list[tuple], list[tuple]]:
    """Canonical frame and pair label rows; every verb's frames share a split."""
    words = st.text(string.ascii_lowercase, min_size=1, max_size=4)
    frame_rows = []
    verb_split = draw(st.dictionaries(words, st.sampled_from(SPLITS), max_size=4))
    for verb, split in verb_split.items():
        shapes = draw(st.lists(st.tuples(st.sampled_from(FRAME_TYPES), st.sampled_from(["-", "at", "on"])),
                               min_size=1, max_size=3, unique=True))
        for frame_type, prep in shapes:
            labels = draw(st.dictionaries(st.sampled_from(ATTRIBUTES), relations, min_size=1))
            frame_rows += [(verb, frame_type, prep, a.value, r, split) for a, r in labels.items()]
    pair_rows = []
    for x, y in draw(st.lists(st.tuples(words, words).filter(lambda p: p[0] < p[1]), max_size=6, unique=True)):
        split = draw(st.sampled_from(SPLITS))
        labels = draw(st.dictionaries(st.sampled_from(ATTRIBUTES), relations, min_size=1))
        pair_rows += [(x, y, a.value, r, split) for a, r in labels.items()]
    return frame_rows, pair_rows


def saved(tmp_path, name, frame_rows, pair_rows) -> tuple[str, str]:
    """The canonical files :func:`save_dataset` writes for the loaded rows."""
    files = [tmp_path / f"{name}_{kind}.tsv" for kind in ("frames", "pairs", "frames_out", "pairs_out")]
    files[0].write_text("".join("\t".join(r[:4]) + f"\t{TOKEN_OF_RELATION[r[4]]}\t{r[5]}\n" for r in frame_rows))
    files[1].write_text("".join("\t".join(r[:3]) + f"\t{TOKEN_OF_RELATION[r[3]]}\t{r[4]}\n" for r in pair_rows))
    save_dataset(load_dataset(files[0], files[1]), files[2], files[3])
    return files[2].read_text(), files[3].read_text()


@PROPERTY_SETTINGS
@given(label_rows(), st.data())
def test_load_dataset_ignores_row_order_and_pair_orientation(tmp_path_factory, rows, data):
    frame_rows, pair_rows = rows
    shuffled_frames = data.draw(st.permutations(frame_rows))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pair_rows), max_size=len(pair_rows)))
    flipped = [(y, x, a, flip(r), s) if swap else (x, y, a, r, s) for (x, y, a, r, s), swap in zip(pair_rows, flips)]
    shuffled_pairs = data.draw(st.permutations(flipped))
    tmp_path = tmp_path_factory.mktemp("labels")
    assert saved(tmp_path, "shuffled", shuffled_frames, shuffled_pairs) == saved(tmp_path, "sorted", frame_rows, pair_rows)
