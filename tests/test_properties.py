"""Property tests of the text formats: graph dumps, label, embedding and co-occurrence files."""
import math
import re
import string
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from physrel.core import (
    ATTRIBUTES,
    FRAME_TYPES,
    TOKEN_OF_RELATION,
    Attribute,
    RelationValue,
    flip,
    ordered_pair,
    relation_from_token,
)
from physrel import factorgraph
from physrel.factorgraph import LINE_BREAKS, FactorGraph, dump_graph, graph_text, load_graph
from physrel.lexstats import SPLITS, FrameItem, load_cooccurrence, load_dataset, load_embeddings
from conftest import entries, reference_dump_graph, save_dataset

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
        scope = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        table = draw(st.lists(positive, min_size=3 ** len(scope), max_size=3 ** len(scope)))
        graph.add_factor(scope, np.reshape(table, (3,) * len(scope)), kind=draw(names))
    return graph


@PROPERTY_SETTINGS
@given(graphs())
def test_dump_load_dump_is_identity(graph):
    text = dump_graph(graph)
    assert dump_graph(load_graph(text)) == text


@st.composite
def many_factor_graphs(draw) -> FactorGraph:
    """Graphs of 0-160 factors, mostly past 100 so factor ids cross digit
    counts, on up to 120 variables, unary-only, binary-only or mixed, drawn
    from a few unary rows and bank tables, with kinds that may hold ``%``."""
    graph = FactorGraph()
    n = draw(st.integers(2, 120))
    for vid in range(n):
        graph.add_variable(f"n{vid}")
    m = draw(st.one_of(st.integers(101, 160), st.integers(0, 100)))
    arity = draw(st.sampled_from(["unary", "binary", "mixed"]))
    unary = [arity == "unary"] * m if arity != "mixed" else draw(st.lists(st.booleans(), min_size=m, max_size=m))
    kinds = draw(st.lists(st.text("ab%sd()", min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.lists(positive, min_size=3, max_size=3), min_size=1, max_size=4))
    tables = draw(st.lists(st.lists(positive, min_size=9, max_size=9), min_size=1, max_size=4))
    a = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    # A binary factor's second end is any variable but its first.
    b = [(x + step) % n for x, step in zip(a, draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m)))]
    table_ids = [draw(st.integers(0, len(rows if u else tables) - 1)) for u in unary]
    graph.add_factors(
        kinds,
        draw(st.lists(st.integers(0, len(kinds) - 1), min_size=m, max_size=m)),
        [(x, -1 if u else y) for x, y, u in zip(a, b, unary)],
        table_ids,
        rows,
        tables,
    )
    return graph


@PROPERTY_SETTINGS
@given(many_factor_graphs())
def test_dump_matches_the_line_at_a_time_reference(graph):
    # Small blocks put block edges, and a short last block, among the factors.
    # graph_text gives the variable lines as one piece, then each block of
    # factor lines as one piece; joined, they are the dump.
    expected = reference_dump_graph(graph)
    m = len(graph.columns()[0])
    for block in (1, 2, 3, 7, factorgraph.TEXT_BLOCK):
        with patch.object(factorgraph, "TEXT_BLOCK", block):
            pieces = list(graph_text(graph))
            assert "".join(pieces) == dump_graph(graph) == expected
        assert pieces[0].count("\n") == graph.n_variables
        assert [p.count("\n") for p in pieces[1:]] == [min(block, m - lo) for lo in range(0, m, block)]


@PROPERTY_SETTINGS
@given(many_factor_graphs(), st.data())
def test_graph_text_checks_keys_and_kinds_when_called(graph, data):
    # A bad node key or kind raises at the call, before any piece is asked
    # for, so a writer that calls graph_text first opens no file.
    bad = data.draw(st.sampled_from("\t\n" + LINE_BREAKS))
    if data.draw(st.booleans()):
        match = f"variable {graph.add_variable(f'key{bad}')}: node key "
    else:
        match = f"factor {graph.add_factor([0], [0.2, 0.3, 0.5], kind=f'kind{bad}')}: kind "
    with pytest.raises(ValueError, match=match):
        graph_text(graph)


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


def reference_load_graph(text: str) -> FactorGraph:
    """The line-at-a-time parse that the columnar :func:`load_graph` replaced."""
    graph = FactorGraph()
    kinds: dict = {}
    tables: dict = {}  # value text -> (arity, id into rows or bank)
    rows, bank, factors = [], [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("\t")
        if not line.strip() or line.startswith("#"):
            continue
        is_var = parts[0] == "var" and len(parts) == 3 and parts[1] == str(graph.n_variables)
        if is_var and not graph.has_variable(parts[2]):
            graph.add_variable(parts[2])
            continue
        try:
            if parts[0] != "factor" or len(parts) != 5 or parts[1] != str(len(factors)):
                raise ValueError
            scope = [int(v) for v in parts[3].split(",")]
            if parts[4] not in tables:
                values = [float(x) for x in parts[4].split()]
                store = {3: rows, 9: bank}[len(values)]
                if not all(0 < x < math.inf for x in values):
                    raise ValueError
                store.append(values)
                tables[parts[4]] = (1 if store is rows else 2, len(store) - 1)
            arity, table_id = tables[parts[4]]
            if len(scope) != arity or min(scope) < 0 or max(scope) >= graph.n_variables or len(set(scope)) != arity:
                raise ValueError
        except (ValueError, KeyError):
            raise ValueError(f"line {lineno}: malformed or duplicate record") from None
        factors.append((kinds.setdefault(parts[2], len(kinds)), scope[0], scope[-1] if arity == 2 else -1, table_id))
    columns = np.array(factors, dtype=np.int64).reshape(-1, 4)
    graph.add_factors(list(kinds), columns[:, 0], columns[:, 1:3], columns[:, 3], rows, bank)
    return graph


GRAPH_CORRUPTIONS = ("id", "extra tab", "missing tab", "scope", "value count", "value", "skipped", "late var",
                     "duplicate line", "duplicate node", "line break")
# Scope texts int() reads leniently or not at all.
odd_scopes = st.sampled_from(
    ["03", "+1", " 2", "1 ", "1_0", "0,-1", "-0", "0,0", "1,", ",1", "", "x", "\u0663", "0,1,0", "9" * 25]
)
odd_values = st.sampled_from(["0.0", "nan", "inf", "1e0", "-1", "1_0", "x", " 1", "+2.5"])


def corrupted_dump(data, lines: list[str], corruption: str) -> list[str]:
    """A copy of dump lines with one corruption; valid or not, both parsers must agree."""
    lines = list(lines)
    factor_at = [i for i, line in enumerate(lines) if line.startswith("factor\t")]
    index = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[index].split("\t")
    if corruption in ("scope", "value count", "value") and factor_at:
        index = data.draw(st.sampled_from(factor_at))
        fields = lines[index].split("\t")
        values = fields[4].split()
        if corruption == "scope":
            parts = fields[3].split(",")
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(odd_scopes)
            fields[3] = ",".join(parts)
        elif corruption == "value count":
            fields[4] = " ".join(values[:3] if len(values) == 9 else values * 3)
        else:
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(odd_values)
            fields[4] = " ".join(values)
        lines[index] = "\t".join(fields)
    elif corruption == "id":
        fields[1] = str(data.draw(st.integers(0, 20)))
        lines[index] = "\t".join(fields)
    elif corruption in ("extra tab", "missing tab"):
        line = lines[index]
        tabs = [i for i, c in enumerate(line) if c == "\t"]
        if corruption == "missing tab":
            cut = data.draw(st.sampled_from(tabs))
            lines[index] = line[:cut] + line[cut + 1 :]
        else:
            at = data.draw(st.integers(0, len(line)))
            lines[index] = line[:at] + "\t" + line[at:]
    elif corruption == "skipped":
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(skipped))
    elif corruption == "late var":
        n = sum(line.startswith("var\t") for line in lines)
        lines.insert(data.draw(st.integers(n, len(lines))), f"var\t{n}\tlate")
        lines.append(f"factor\t{len(factor_at)}\tk\t{n}\t1 2 3")
    elif corruption == "duplicate line":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[index])
    elif corruption == "duplicate node":
        n = sum(line.startswith("var\t") for line in lines)
        lines.insert(n, f"var\t{n}\t{lines[0].split(chr(9))[2]}")
    elif corruption == "line break":
        line = lines[index]
        at = data.draw(st.integers(0, len(line)))
        lines[index] = line[:at] + data.draw(st.sampled_from(["\r", "\x0b", "\x1c", "\u2028"])) + line[at:]
    return lines


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_load_graph_matches_the_reference_parser(graph, data):
    corruption = data.draw(st.sampled_from((None,) + GRAPH_CORRUPTIONS))
    lines = dump_graph(graph).splitlines()
    if corruption is not None:
        lines = corrupted_dump(data, lines, corruption)
    text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n", "\r\n"]))
    # Small blocks put block boundaries between the few factors a drawn graph has.
    block = data.draw(st.sampled_from([1, 2, 3, factorgraph.TEXT_BLOCK]))
    try:
        expected = dump_graph(reference_load_graph(text))
    except ValueError as exc:
        with patch.object(factorgraph, "TEXT_BLOCK", block), pytest.raises(ValueError) as raised:
            load_graph(text)
        assert str(raised.value) == str(exc)
        return
    with patch.object(factorgraph, "TEXT_BLOCK", block):
        assert dump_graph(load_graph(text)) == expected


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


# -- embedding and co-occurrence files --

# A small vocabulary, so that duplicate rows are common.
VOCABULARY = ["ant", "bee", "cat", "dog"]
vocabulary = st.sampled_from(VOCABULARY)
finite = st.floats(allow_nan=False, allow_infinity=False)
DIM = 3
# Lines every loader skips: comments and blank lines.
skipped = st.sampled_from(["", "   ", "\t", "#", "# ant 1 2 3", "#\tant\tbee\t5"])


def with_skipped_lines(data, lines: list[str]) -> list[str]:
    """``lines`` in order, with comment and blank lines drawn in between."""
    out = []
    for line in lines + [None]:
        out += data.draw(st.lists(skipped, max_size=2))
        if line is not None:
            out.append(line)
    return out


def embedding_line(word: str, vector) -> str:
    return word + " " + " ".join(map(repr, vector))


def cooccurrence_line(row) -> str:
    return "\t".join(map(str, row))


embedding_rows = st.lists(st.tuples(vocabulary, st.lists(finite, min_size=DIM, max_size=DIM)), max_size=8)
cooccurrence_rows = st.lists(st.tuples(vocabulary, vocabulary, vocabulary, st.integers(1, 1000)), max_size=10)


@PROPERTY_SETTINGS
@given(embedding_rows, st.data())
def test_load_embeddings_skips_comments_and_keeps_the_first_duplicate(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    path.write_text("\n".join(with_skipped_lines(data, [embedding_line(w, v) for w, v in rows])) + "\n")
    store = load_embeddings(path, DIM)
    first: dict = {}
    for word, vector in rows:
        first.setdefault(word, vector)
    for word in VOCABULARY + ["#"]:
        if word in first:
            assert np.array_equal(store.get(word), first[word])
        else:
            assert store.get(word) is None


@PROPERTY_SETTINGS
@given(cooccurrence_rows, st.data())
def test_load_cooccurrence_skips_comments_and_sums_duplicates(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("cooc") / "cooc.tsv"
    path.write_text("\n".join(with_skipped_lines(data, [cooccurrence_line(r) for r in rows])) + "\n")
    stats = load_cooccurrence(path)
    sums: dict = {}
    for frame_key, x, y, count in rows:
        sums[(frame_key, (x, y))] = sums.get((frame_key, (x, y)), 0) + count
    assert entries(stats) == sorted((frame_key, pair, n) for (frame_key, pair), n in sums.items())
    assert stats.total == sum(sums.values())


@PROPERTY_SETTINGS
@given(embedding_rows, st.data())
def test_load_embeddings_names_the_line_of_a_non_finite_value(tmp_path_factory, rows, data):
    vector = data.draw(st.lists(finite, min_size=DIM, max_size=DIM))
    vector[data.draw(st.integers(0, DIM - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    bad = embedding_line(data.draw(vocabulary), vector)
    lines = with_skipped_lines(data, [embedding_line(w, v) for w, v in rows])
    lines.insert(data.draw(st.integers(0, len(lines))), bad)
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    path.write_text("\n".join(lines) + "\n")
    where = f"^{re.escape(str(path))}: line {lines.index(bad) + 1}: "
    with pytest.raises(ValueError, match=where + "non-finite value"):
        load_embeddings(path, DIM)


@PROPERTY_SETTINGS
@given(cooccurrence_rows, st.data())
def test_load_cooccurrence_names_the_line_of_a_non_positive_count(tmp_path_factory, rows, data):
    count = data.draw(st.integers(-1000, 0))
    bad = cooccurrence_line((*data.draw(st.tuples(vocabulary, vocabulary, vocabulary)), count))
    lines = with_skipped_lines(data, [cooccurrence_line(r) for r in rows])
    lines.insert(data.draw(st.integers(0, len(lines))), bad)
    path = tmp_path_factory.mktemp("cooc") / "cooc.tsv"
    path.write_text("\n".join(lines) + "\n")
    where = f"^{re.escape(str(path))}: line {lines.index(bad) + 1}: "
    with pytest.raises(ValueError, match=where + f"count {count} is below 1"):
        load_cooccurrence(path)


# -- label files against a dict-based reference parser --


def reference_labels(frame_file, pair_file) -> dict:
    """The row-at-a-time parse that the columnar loader replaced, as
    {(class, key): (split, {attribute: relation})}. A malformed row raises
    ValueError naming its file and line; checks run in row order."""
    parsed: dict = {}
    for path, n_columns, name in ((frame_file, 6, "frame"), (pair_file, 5, "pair")):
        verb_split: dict = {}
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip() or line.startswith("#"):
                    continue
                parts = line.rstrip("\n").split("\t")
                where = f"{path}: line {lineno}: "
                if len(parts) != n_columns:
                    raise ValueError(where + f"expected {n_columns} columns, got {len(parts)}")
                *key_columns, attr_tok, rel_tok, split = parts
                try:
                    attribute = Attribute.from_token(attr_tok)
                    relation = relation_from_token(rel_tok)
                    if split not in SPLITS:
                        raise ValueError(f"unknown split {split!r}")
                    if name == "frame":
                        verb, frame_type, prep = key_columns
                        key = FrameItem(verb, frame_type, None if prep == "-" else prep, split).key
                    else:
                        lo, hi, swapped = ordered_pair(*key_columns)
                        key, relation = (lo, hi), flip(relation) if swapped else relation
                    item_split, labels = parsed.setdefault((name, key), (split, {}))
                    if item_split != split:
                        raise ValueError(f"{name} {key} has conflicting splits")
                    if name == "frame" and verb_split.setdefault(key[0], split) != split:
                        raise ValueError(f"frames of verb {key[0]!r} span multiple splits")
                    if attribute in labels:
                        raise ValueError(f"duplicate label for {key} / {attribute}")
                    labels[attribute] = relation
                except ValueError as exc:
                    raise ValueError(where + str(exc)) from None
    return parsed


def loaded_labels(dataset) -> dict:
    """``dataset`` in the form :func:`reference_labels` returns."""
    return {
        (name, it.key): (it.split, {a: dataset.gold(it, a) for a in ATTRIBUTES if dataset.has_label(it, a)})
        for name, items in (("frame", dataset.frames), ("pair", dataset.pairs))
        for it in items
    }


CORRUPTIONS = ("attribute", "relation", "split", "conflicting split", "verb split", "duplicate label", "column count")


def corrupted(row: list[str], corruption: str) -> list[str]:
    """A malformed copy of a label row (columns as written)."""
    row = list(row)
    if corruption == "attribute":
        row[-3] = "mass"
    elif corruption == "relation":
        row[-2] = "~"
    elif corruption == "split":
        row[-1] = "train"
    elif corruption in ("conflicting split", "verb split"):
        row[-1] = SPLITS[(SPLITS.index(row[-1]) + 1) % len(SPLITS)]
        if corruption == "verb split":
            row[2] = "by"  # a frame shape no drawn row has
    elif corruption == "column count":
        row = row[:-1] if len(row) % 2 else row + ["extra"]
    return row  # "duplicate label": the row itself, repeated


@PROPERTY_SETTINGS
@given(label_rows(), st.data())
def test_load_dataset_matches_the_reference_parser(tmp_path_factory, rows, data):
    frame_rows, pair_rows = rows
    files = {
        "frames": [[*r[:4], TOKEN_OF_RELATION[r[4]], r[5]] for r in frame_rows],
        "pairs": [[*r[:3], TOKEN_OF_RELATION[r[3]], r[4]] for r in pair_rows],
    }
    corruption = data.draw(st.sampled_from((None,) + CORRUPTIONS))
    if corruption is not None:
        target = "frames" if corruption == "verb split" else data.draw(st.sampled_from(sorted(files)))
        fallback = ["throw", "dobj", "-", "size", ">", "seed"] if target == "frames" else ["ant", "bee", "size", "<", "dev"]
        source = data.draw(st.sampled_from(files[target])) if files[target] else fallback
        if corruption in ("conflicting split", "verb split", "duplicate label") and not files[target]:
            files[target].append(source)
        files[target].insert(data.draw(st.integers(0, len(files[target]))), corrupted(source, corruption))
    directory = tmp_path_factory.mktemp("labels")
    paths = [directory / f"{name}.tsv" for name in ("frames", "pairs")]
    for path, name in zip(paths, ("frames", "pairs")):
        lines = with_skipped_lines(data, ["\t".join(row) for row in files[name]])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        expected = reference_labels(*paths)
    except ValueError as exc:
        assert corruption is not None
        with pytest.raises(ValueError) as raised:
            load_dataset(*paths)
        assert str(raised.value) == str(exc)
        return
    assert corruption is None
    dataset = load_dataset(*paths)
    assert loaded_labels(dataset) == expected
    for items in (dataset.frames, dataset.pairs):
        assert [it.key for it in items] == sorted(it.key for it in items)
