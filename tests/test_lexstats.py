"""Ingestion layer: embeddings, cosine similarity, PMI, dataset loading and guarding."""
import math
import re

import numpy as np
import pytest

from physrel.core import Attribute, RelationValue
from physrel.lexstats import (
    EmbeddingStore,
    LabelAccessError,
    load_cooccurrence,
    load_dataset,
    load_embeddings,
    similar_pairs,
)
from conftest import cooccurrence, entries, joint_count, make_dataset, pmi, save_dataset, split_counts, usable_counts

SIZE, WEIGHT = Attribute.SIZE, Attribute.WEIGHT
GT, EQ, LT = RelationValue.GT, RelationValue.EQ, RelationValue.LT


# -- embeddings --


def test_load_embeddings_two_rows(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("ant 1.0 2.0 3.0\nzebra 0.5 -1.25 4.0\n")
    store = load_embeddings(path, 3)
    assert np.array_equal(store.get("ant"), [1.0, 2.0, 3.0])
    assert np.array_equal(store.get("zebra"), [0.5, -1.25, 4.0])


def test_load_embeddings_rejects_short_row(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("ant 1.0 2.0 3.0\nzebra 0.5 -1.25\n")
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(path, 3)


def test_load_embeddings_rejects_non_numeric(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("ant 1.0 x 3.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_embeddings(path, 3)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_embeddings_rejects_non_finite(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"ant 1.0 2.0 3.0\nzebra 0.5 {value} 4.0\n")
    with pytest.raises(ValueError, match=f"^{path}: line 2: non-finite"):
        load_embeddings(path, 3)


def test_load_embeddings_exact_float_round_trip(tmp_path):
    # Byte-level oracle: floats written to the file come back exactly.
    values = [0.123456789012345, -7.25e-3, 1e10]
    path = tmp_path / "emb.txt"
    path.write_text("person " + " ".join(repr(v) for v in values) + "\n")
    store = load_embeddings(path, 3)
    assert np.array_equal(store.get("person"), np.array(values))


def test_duplicate_word_keeps_first(tmp_path, caplog):
    path = tmp_path / "emb.txt"
    path.write_text("ant 1.0 2.0\nant 9.0 9.0\n")
    with caplog.at_level("WARNING"):
        store = load_embeddings(path, 2)
    assert np.array_equal(store.get("ant"), [1.0, 2.0])
    assert any("duplicate" in r.message for r in caplog.records)


def test_comment_lines_ignored(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("# a comment\nant 1.0 2.0\n\n")
    store = load_embeddings(path, 2)
    assert np.array_equal(store.get("ant"), [1.0, 2.0])
    assert store.get("#") is None


def test_human_token_aliases_person(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("person 1.0 2.0\n")
    store = load_embeddings(path, 2)
    assert np.array_equal(store.get("HUMAN"), store.get("person"))


def test_store_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        EmbeddingStore(3, {"a": np.ones(2)})


# -- cosine similarity --


def similar(u, v, threshold: float) -> bool:
    """Whether :func:`similar_pairs` links two words with vectors u and v."""
    store = EmbeddingStore(len(u), {"u": u, "v": v})
    return bool(similar_pairs(store, ["u", "v"], threshold)[0, 1])


def test_cosine_identical_vectors():
    v = np.array([0.2, -0.4, 1.0])
    assert similar(v, v, 1 - 1e-9) and not similar(v, v, 1 + 1e-9)


def test_cosine_orthogonal_unit_vectors():
    assert similar([1.0, 0.0], [0.0, 1.0], -1e-9)
    assert not similar([1.0, 0.0], [0.0, 1.0], 1e-9)


def test_cosine_hand_computed_value():
    # Oracle: sqrt(2)/2 by hand.
    assert similar([1.0, 0.0], [1.0, 1.0], math.sqrt(2) / 2 - 1e-5)
    assert not similar([1.0, 0.0], [1.0, 1.0], math.sqrt(2) / 2 + 1e-5)


def test_cosine_zero_vector_defined_as_zero():
    assert similar([0.0, 0.0], [1.0, 2.0], -1e-12)
    assert not similar([0.0, 0.0], [1.0, 2.0], 0.0)


def test_cosine_symmetry_and_bound():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(50)]
    store = EmbeddingStore(6, {w: rng.normal(size=6) for w in words})
    for threshold in np.linspace(-0.9, 0.9, 7):
        mask = similar_pairs(store, words, threshold)
        assert np.array_equal(mask, mask.T)
    assert similar_pairs(store, words, -1 - 1e-12).all()
    assert not similar_pairs(store, words, 1 + 1e-12).any()


# -- PMI --


def toy_stats():
    return cooccurrence(
        {
            ("f:dobj:-", ("a", "b")): 10,
            ("f:dobj:-", ("c", "d")): 90,
            ("g:dobj:-", ("a", "b")): 5,
        }
    )


def test_pmi_independence_is_zero():
    stats = cooccurrence({("f", ("a", "b")): 10, ("f", ("c", "d")): 90})
    # c(f,p)=10, c(f)=100, c(p)=10, N=100
    assert pmi(stats, "f", ("a", "b")) == pytest.approx(0.0)


def test_pmi_direct_formula():
    stats = cooccurrence(
        {
            ("f", ("a", "b")): 8,
            ("f", ("c", "d")): 2,
            ("g", ("a", "b")): 2,
            ("g", ("e", "h")): 88,
        }
    )
    # c(f,p)=8, c(f)=10, c(p)=10, N=100 -> ln 8
    assert pmi(stats, "f", ("a", "b")) == pytest.approx(math.log(8), abs=1e-12)


def test_pmi_zero_joint_is_negative_infinity():
    stats = toy_stats()
    assert pmi(stats, "g:dobj:-", ("c", "d")) == float("-inf")


def test_pmi_zero_marginal_is_error():
    stats = toy_stats()
    with pytest.raises(ValueError):
        pmi(stats, "missing", ("a", "b"))
    with pytest.raises(ValueError):
        pmi(stats, "f:dobj:-", ("x", "y"))  # pair marginal is 0


def test_pmi_scale_invariance():
    base = {("f", ("a", "b")): 7, ("f", ("c", "d")): 3, ("g", ("a", "b")): 5}
    s1 = cooccurrence(base)
    s9 = cooccurrence({k: 9 * v for k, v in base.items()})
    assert pmi(s1, "f", ("a", "b")) == pytest.approx(pmi(s9, "f", ("a", "b")), abs=1e-9)


def test_cooccurrence_marginals_dominate_joints():
    stats = toy_stats()
    assert (stats.frame_total[stats.frame] >= stats.count).all()
    assert (stats.pair_total >= stats.count).all()
    assert stats.total >= stats.frame_total.max()
    assert stats.frame_total.sum() == stats.total


def test_load_cooccurrence(tmp_path):
    path = tmp_path / "cooc.tsv"
    path.write_text("# comment\nf:dobj:-\ta\tb\t10\nf:dobj:-\ta\tb\t5\n")
    stats = load_cooccurrence(path)
    assert joint_count(stats, "f:dobj:-", ("a", "b")) == 15
    bad = tmp_path / "bad.tsv"
    bad.write_text("f\ta\tb\tmany\n")
    with pytest.raises(ValueError):
        load_cooccurrence(bad)


@pytest.mark.parametrize("count", [0, -3])
def test_load_cooccurrence_rejects_counts_below_one(tmp_path, count):
    path = tmp_path / "cooc.tsv"
    path.write_text(f"# comment\nf:dobj:-\ta\tb\t10\n\ng:dobj:-\ta\tc\t{count}\n")
    with pytest.raises(ValueError, match=rf"cooc\.tsv: line 4: count {count} is below 1"):
        load_cooccurrence(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["f\ta\tb\t2", "f\ta\tb", "f\ta\tb\tx"], "line 2: expected 4 columns, got 3"),
        (["f\ta\tb\tx", "f\ta\tb\t1\t1"], "line 1: non-integer count 'x'"),
        (["f\ta\tb\t2", "# f\ta\tb", "f\ta\tb\t0", "f\ta\tb"], "line 3: count 0 is below 1"),
        (["f\ta\tb\t" + str(2**62), "g\ta\tb\t" + str(2**62)], f"counts sum to {2**63}, more than 64-bit"),
    ],
)
def test_load_cooccurrence_names_the_first_malformed_row(tmp_path, rows, message):
    path = tmp_path / "cooc.tsv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
        load_cooccurrence(path)


def test_load_cooccurrence_sums_rows_into_sorted_columns(tmp_path):
    path = tmp_path / "cooc.tsv"
    path.write_text("g\tb\ta\t2\nf\tc\ta\t1\n\ng\tb\ta\t+3\nf\ta\tc\t 4\n")
    stats = load_cooccurrence(path)
    assert (stats.frames, stats.objects) == (["f", "g"], ["a", "b", "c"])
    assert entries(stats) == [("f", ("a", "c"), 4), ("f", ("c", "a"), 1), ("g", ("b", "a"), 5)]
    assert stats.frame_total.tolist() == [5, 5] and stats.pair_total.tolist() == [4, 1, 5]
    assert stats.total == 10 and joint_count(stats, "g", ("b", "a")) == 5 and joint_count(stats, "g", ("a", "b")) == 0


# -- dataset loading --

FRAME_TSV = """# frames
throw\tdobj\t-\tsize\t>\tseed
throw\tdobj\t-\tweight\t>\tseed
throw\tpobj\tat\tsize\t>\tseed
carry\tdobj\t-\tsize\t>\tdev
enter\tpobj\tinto\tsize\t<\ttest
"""

PAIR_TSV = """# pairs
ant\tzebra\tsize\t<\tseed
zebra\tant\tweight\t>\tseed
mouse\thouse\tsize\t<\ttest
house\tmouse\tweight\t>\ttest
"""


def write_files(tmp_path):
    frame_file = tmp_path / "frames.tsv"
    pair_file = tmp_path / "pairs.tsv"
    frame_file.write_text(FRAME_TSV)
    pair_file.write_text(PAIR_TSV)
    return frame_file, pair_file


def test_load_dataset_basic(tmp_path):
    frame_file, pair_file = write_files(tmp_path)
    ds = load_dataset(frame_file, pair_file)
    assert split_counts(ds) == {
        "frames": {"seed": 2, "dev": 1, "test": 1},
        "pairs": {"seed": 1, "dev": 0, "test": 1},
    }
    assert usable_counts(ds)["frames"]["size"] == 4
    assert usable_counts(ds)["pairs"]["weight"] == 2


def test_load_dataset_canonicalizes_reversed_pair_rows(tmp_path):
    frame_file, pair_file = write_files(tmp_path)
    ds = load_dataset(frame_file, pair_file)
    item = next(p for p in ds.pairs if p.key == ("ant", "zebra"))
    # "zebra > ant" arrives reversed and must flip to "ant < zebra".
    assert ds.gold(item, WEIGHT) is LT
    assert ds.gold(item, SIZE) is LT


def test_load_dataset_rejects_identity_pair(tmp_path):
    frame_file, pair_file = write_files(tmp_path)
    pair_file.write_text("ant\tant\tsize\t=\tseed\n")
    with pytest.raises(ValueError):
        load_dataset(frame_file, pair_file)


def test_load_dataset_rejects_duplicates(tmp_path):
    frame_file, pair_file = write_files(tmp_path)
    pair_file.write_text("ant\tzebra\tsize\t<\tseed\nzebra\tant\tsize\t>\tseed\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(frame_file, pair_file)


def test_load_dataset_rejects_unknown_tokens(tmp_path):
    frame_file, pair_file = write_files(tmp_path)
    for row, message in [
        ("ant\tzebra\tmass\t<\tseed\n", "attribute"),
        ("ant\tzebra\tsize\t~\tseed\n", "relation"),
        ("ant\tzebra\tsize\t<\ttrain\n", "split"),
    ]:
        pair_file.write_text(row)
        with pytest.raises(ValueError, match=message):
            load_dataset(frame_file, pair_file)


def test_load_dataset_names_the_line_of_an_unregistered_frame_type(tmp_path):
    frame_file, pair_file = write_files(tmp_path)
    frame_file.write_text("throw\tdobj\t-\tsize\t>\tseed\n# a comment\nthink\tccomp\t-\tsize\t>\tseed\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(frame_file))}: line 3: unregistered frame type 'ccomp'$"):
        load_dataset(frame_file, pair_file)


def test_frames_partitioned_by_verb(tmp_path):
    frame_file, pair_file = write_files(tmp_path)
    frame_file.write_text(
        "throw\tdobj\t-\tsize\t>\tseed\nthrow\tpobj\tat\tsize\t>\tdev\n"
    )
    with pytest.raises(ValueError, match="verb"):
        load_dataset(frame_file, pair_file)


def test_empty_files_give_empty_dataset(tmp_path):
    frame_file = tmp_path / "frames.tsv"
    pair_file = tmp_path / "pairs.tsv"
    frame_file.write_text("")
    pair_file.write_text("")
    ds = load_dataset(frame_file, pair_file)
    assert ds.frames == [] and ds.pairs == []


def test_save_load_round_trip_is_bit_exact(tmp_path):
    frame_file, pair_file = write_files(tmp_path)
    ds = load_dataset(frame_file, pair_file)
    f2, p2 = tmp_path / "frames2.tsv", tmp_path / "pairs2.tsv"
    save_dataset(ds, f2, p2)
    ds2 = load_dataset(f2, p2)
    f3, p3 = tmp_path / "frames3.tsv", tmp_path / "pairs3.tsv"
    save_dataset(ds2, f3, p3)
    assert f2.read_bytes() == f3.read_bytes()
    assert p2.read_bytes() == p3.read_bytes()
    assert [it.key for it in ds2.frames] == [it.key for it in ds.frames]
    assert [it.key for it in ds2.pairs] == [it.key for it in ds.pairs]


# -- label guard and views --


def test_audit_guard_blocks_eval_labels():
    ds = make_dataset(
        frames=[("throw", "dobj", None, "seed", {SIZE: GT})],
        pairs=[("ant", "zebra", "dev", {SIZE: LT})],
    )
    dev_item = ds.pairs[0]
    assert ds.gold(dev_item, SIZE) is LT  # unguarded access is fine
    with ds.audit_label_access({"seed"}):
        assert ds.gold(ds.frames[0], SIZE) is GT
        with pytest.raises(LabelAccessError):
            ds.gold(dev_item, SIZE)
    assert ds.gold(dev_item, SIZE) is LT  # guard restored


def test_restrict_filters_splits():
    ds = make_dataset(
        frames=[
            ("throw", "dobj", None, "seed", {SIZE: GT}),
            ("carry", "dobj", None, "dev", {SIZE: GT}),
            ("enter", "dobj", None, "test", {SIZE: LT}),
        ],
        pairs=[("ant", "zebra", "test", {SIZE: LT})],
    )
    sub = ds.restrict({"seed", "test"}, {"seed", "test"})
    assert [it.verb for it in sub.frames] == ["enter", "throw"]
    assert len(sub.pairs) == 1


def test_unknown_split_names_are_rejected():
    ds = make_dataset(
        frames=[("throw", "dobj", None, "seed", {SIZE: GT})],
        pairs=[("ant", "zebra", "dev", {SIZE: LT})],
    )
    with pytest.raises(ValueError, match="unknown split 'tset'"):
        ds.restrict({"seed", "tset"}, {"seed"})
    with pytest.raises(ValueError, match="unknown split 'tset'"):
        ds.restrict({"seed"}, ["dev", "tset"])
    with pytest.raises(ValueError, match="unknown split 'tset'"):
        ds.rows_in("pairs", "dev", "tset")
    with pytest.raises(ValueError, match="unknown split 'tset'"):
        with ds.audit_label_access({"seed", "tset"}):
            pass
    assert ds.gold(ds.pairs[0], SIZE) is LT  # no guard left behind
    assert ds.rows_in("pairs", "dev").tolist() == [0] and ds.rows_in("pairs").tolist() == []


def test_has_label_is_public_but_gold_is_guarded():
    ds = make_dataset(pairs=[("ant", "zebra", "test", {SIZE: LT})])
    item = ds.pairs[0]
    with ds.audit_label_access({"seed"}):
        assert ds.has_label(item, SIZE)
        assert [a for a in Attribute if ds.has_label(item, a)] == [SIZE]
        with pytest.raises(LabelAccessError):
            ds.gold(item, SIZE)
