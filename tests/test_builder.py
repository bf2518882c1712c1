"""Graph assembly: the soft-1 constant, orientation handling, factor gating."""
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from physrel.builder import (
    FLIPPED,
    SOFT,
    SOFT_ONE,
    Build,
    BuildConfig,
    FACTOR_KINDS,
    NODE_CLASSES,
    add_attribute_factors,
    add_selectional_preference_factors,
    add_similarity_factors,
    build,
    featurize_items,
    flipped_table,
    frames_link,
    make_nodes,
    train_models,
)
from physrel.core import ATTRIBUTES, Attribute, FrameNode, ObjectPairNode, RelationValue
from physrel.factorgraph import BPConfig, dump_graph, run_bp
from physrel.harness import DataPaths, TaskSpec, prepare
from physrel.lexstats import CooccurrenceStats, EmbeddingStore, Embeddings, similar_pairs
from physrel.maxent import TrainConfig, predict_proba
from physrel.synthetic import generate_world
from conftest import cooccurrence, cosine, entries, entry_row, factors, make_dataset, one_descent_per_model, pmi, variable

SIZE, WEIGHT, SPEED, STRENGTH = Attribute.SIZE, Attribute.WEIGHT, Attribute.SPEED, Attribute.STRENGTH
GT, EQ, LT = RelationValue.GT, RelationValue.EQ, RelationValue.LT


def embeddings_for(objects=(), verbs=(), obj_vecs=None, verb_vecs=None):
    rng = np.random.default_rng(0)
    obj_map = dict(obj_vecs or {})
    for o in objects:
        obj_map.setdefault(o, rng.normal(size=50))
    verb_map = dict(verb_vecs or {})
    for v in verbs:
        verb_map.setdefault(v, rng.normal(size=100))
    return Embeddings(EmbeddingStore(100, verb_map), EmbeddingStore(50, obj_map))


def kind_counts(b: Build) -> dict:
    return {kind: b.report.get(kind, 0) for kind in FACTOR_KINDS}


# -- constants --


def test_soft_one_matrix_values():
    expected = np.array([[0.70, 0.10, 0.20], [0.15, 0.70, 0.15], [0.20, 0.10, 0.70]])
    assert np.array_equal(SOFT_ONE, expected)


def test_flipped_table_entries():
    d = flipped_table(SOFT_ONE)
    assert d[GT][LT] == 0.7  # M[LT][LT]
    assert d[EQ][EQ] == 0.7  # M[EQ][EQ]
    assert d[GT][GT] == 0.2  # M[LT][GT]
    assert np.array_equal(flipped_table(flipped_table(SOFT_ONE)), SOFT_ONE)


def test_seed_rows():
    assert np.array_equal(SOFT_ONE[GT], [0.7, 0.1, 0.2])
    assert np.array_equal(SOFT_ONE[EQ], [0.15, 0.7, 0.15])
    assert np.array_equal(SOFT_ONE[LT], [0.2, 0.1, 0.7])


# -- nodes, seed, emb --


def two_split_dataset(weight=True):
    """Two frames and two pairs, all labeled along size; the seed frame also
    along weight unless ``weight`` is false."""
    return make_dataset(
        frames=[
            ("throw", "dobj", None, "seed", {SIZE: GT, WEIGHT: GT} if weight else {SIZE: GT}),
            ("carry", "dobj", None, "dev", {SIZE: GT}),
        ],
        pairs=[
            ("ant", "zebra", "seed", {SIZE: LT}),
            ("car", "house", "dev", {SIZE: LT}),
        ],
    )


def test_make_nodes_covers_usable_items_only():
    ds = two_split_dataset()
    b = make_nodes(ds)
    # size: 2 frames + 2 pairs; weight: 1 frame.
    assert b.graph.n_variables == 5
    assert b.graph.has_variable(FrameNode("throw", "dobj", None, WEIGHT))
    assert not b.graph.has_variable(FrameNode("carry", "dobj", None, WEIGHT))


def test_make_nodes_numbers_attributes_in_canonical_order():
    ds = two_split_dataset()
    expected = [
        "frame:size:carry:dobj:-",
        "frame:size:throw:dobj:-",
        "pair:size:ant|zebra",
        "pair:size:car|house",
        "frame:weight:throw:dobj:-",
    ]
    b = make_nodes(ds)
    assert [str(b.graph.node_of(v)) for v in range(b.graph.n_variables)] == expected
    # Columns follow ATTRIBUTES: size, then weight, then three attributes with no node.
    assert b.item_vars[0].tolist() == [[0, -1, -1, -1, -1], [1, 4, -1, -1, -1]]
    assert b.item_vars[1].tolist() == [[2, -1, -1, -1, -1], [3, -1, -1, -1, -1]]


def test_seed_only_build_gives_uniform_dev_marginals():
    ds = two_split_dataset(weight=False)
    cfg = BuildConfig(enabled_factor_kinds=frozenset({"seed"}))
    b = build(ds, None, None, None, cfg)
    result = run_bp(b.graph, BPConfig())
    seed_node = variable(b.graph, ObjectPairNode("ant", "zebra", SIZE))
    dev_node = variable(b.graph, ObjectPairNode("car", "house", SIZE))
    assert np.allclose(result.marginals[seed_node], SOFT_ONE[LT])
    assert np.allclose(result.marginals[dev_node], [1 / 3, 1 / 3, 1 / 3])


def test_seed_factor_count_matches_seed_items():
    ds = two_split_dataset(weight=False)
    cfg = BuildConfig(enabled_factor_kinds=frozenset({"seed"}))
    b = build(ds, None, None, None, cfg)
    assert kind_counts(b) == {"seed": 2, "emb": 0, "selpref": 0, "verbsim": 0, "framesim": 0, "objsim": 0, "attrsim": 0}


def test_emb_factors_cover_every_node():
    ds = two_split_dataset(weight=False)
    emb = embeddings_for(objects=("ant", "zebra", "car", "house"), verbs=("throw", "carry"))
    models = train_models(ds, emb)
    cfg = BuildConfig(enabled_factor_kinds=frozenset({"emb"}))
    b = build(ds, emb, None, models, cfg)
    assert kind_counts(b)["emb"] == b.graph.n_variables == 4


def test_emb_requested_without_models_fails():
    ds = two_split_dataset(weight=False)
    cfg = BuildConfig(enabled_factor_kinds=frozenset({"emb"}))
    with pytest.raises(ValueError):
        build(ds, None, None, None, cfg)


def test_node_without_matching_model_fails():
    # Seeds exist only for frames, so no object-pair model is trained; pair
    # nodes then cannot receive their classifier potential.
    ds = make_dataset(
        frames=[("throw", "dobj", None, "seed", {SIZE: GT})],
        pairs=[("ant", "zebra", "dev", {SIZE: LT})],
    )
    emb = embeddings_for(objects=("ant", "zebra"), verbs=("throw",))
    models = train_models(ds, emb)
    cfg = BuildConfig(enabled_factor_kinds=frozenset({"emb"}))
    with pytest.raises(ValueError, match="object-pair"):
        build(ds, emb, None, models, cfg)


def test_class_level_switches():
    ds = two_split_dataset(weight=False)
    cfg = BuildConfig(enabled_factor_kinds=frozenset({"seed"}), seed_objects=False)
    b = build(ds, None, None, None, cfg)
    assert kind_counts(b)["seed"] == 1  # only the frame seed remains


# -- selectional preference --


def selpref_dataset():
    return make_dataset(
        frames=[("threw", "dobj", None, "seed", {SIZE: GT})],
        pairs=[("basketball", "person", "dev", {SIZE: LT})],
    )


def test_selpref_flipped_when_canonical_order_reverses_evidence():
    ds = selpref_dataset()
    # Evidence "person threw basketball": frame order (person, basketball),
    # canonical storage (basketball, person) -> flipped table.
    stats = cooccurrence({("threw:dobj:-", ("person", "basketball")): 50})
    b = make_nodes(ds)
    add_selectional_preference_factors(b, stats, BuildConfig(pmi_threshold=-1.0))
    assert kind_counts(b)["selpref"] == 1
    factor = factors(b.graph)[0]
    f_var = variable(b.graph, FrameNode("threw", "dobj", None, SIZE))
    p_var = variable(b.graph, ObjectPairNode("basketball", "person", SIZE))
    assert factor.scope == (f_var, p_var)
    assert np.array_equal(factor.table, flipped_table(SOFT_ONE))


def test_selpref_plain_when_orientation_matches():
    ds = selpref_dataset()
    stats = cooccurrence({("threw:dobj:-", ("basketball", "person")): 50})
    b = make_nodes(ds)
    add_selectional_preference_factors(b, stats, BuildConfig(pmi_threshold=-1.0))
    assert np.array_equal(factors(b.graph)[0].table, SOFT_ONE)


def test_selpref_gated_by_pmi_threshold():
    ds = selpref_dataset()
    stats = cooccurrence({("threw:dobj:-", ("person", "basketball")): 50})
    b = make_nodes(ds)
    # A single entry has PMI exactly 0 (joint == marginals == total).
    add_selectional_preference_factors(b, stats, BuildConfig(pmi_threshold=0.5))
    assert kind_counts(b)["selpref"] == 0


def test_selpref_single_qualifying_pair_from_mixed_stats():
    # Oracle: hand-filtered stats say exactly one (frame, pair) qualifies.
    ds = make_dataset(
        frames=[("threw", "dobj", None, "seed", {SIZE: GT})],
        pairs=[
            ("basketball", "person", "dev", {SIZE: LT}),
            ("ant", "person", "dev", {SIZE: LT}),
        ],
    )
    stats = cooccurrence(
        {
            ("threw:dobj:-", ("person", "basketball")): 99,
            ("threw:dobj:-", ("unknown", "word")): 1,  # pair not in dataset
            ("other:dobj:-", ("person", "ant")): 7,  # frame not in dataset
        }
    )
    b = make_nodes(ds)
    add_selectional_preference_factors(b, stats, BuildConfig(pmi_threshold=-10.0))
    assert kind_counts(b)["selpref"] == 1


def test_selpref_orientation_conflict_resolves_to_larger_count():
    ds = selpref_dataset()
    stats = cooccurrence(
        {
            ("threw:dobj:-", ("person", "basketball")): 50,
            ("threw:dobj:-", ("basketball", "person")): 3,
        }
    )
    b = make_nodes(ds)
    add_selectional_preference_factors(b, stats, BuildConfig(pmi_threshold=-10.0))
    assert kind_counts(b)["selpref"] == 1
    assert np.array_equal(factors(b.graph)[0].table, flipped_table(SOFT_ONE))


def reference_selpref_links(build, stats, threshold: float) -> list[tuple]:
    """The dict walk that the columnar selpref replaced: (frame row, pair row,
    table, frame key, evidence pair, PMI) per link, PMI from exact integer sums."""
    frame_counts, pair_counts, total = {}, {}, 0
    for frame_key, pair, count in entries(stats):
        frame_counts[frame_key] = frame_counts.get(frame_key, 0) + count
        pair_counts[pair] = pair_counts.get(pair, 0) + count
        total += count
    frame_row = {it.frame_key: i for i, it in enumerate(build.dataset.frames)}
    pair_row = {it.key: i for i, it in enumerate(build.dataset.pairs)}
    chosen = {}
    for frame_key, (p, q), count in entries(stats):
        if p == q:
            continue
        lo, hi = (p, q) if p < q else (q, p)
        prev = chosen.get((frame_key, (lo, hi)))
        if prev is None or count > prev[0]:
            chosen[(frame_key, (lo, hi))] = (count, (p, q))
    links = []
    for (frame_key, (lo, hi)), (count, evidence) in sorted(chosen.items()):
        if frame_key in frame_row and (lo, hi) in pair_row:
            value = float(np.log(count * total / (frame_counts[frame_key] * pair_counts[evidence])))
            if value > threshold:
                table = FLIPPED if evidence[0] != lo else SOFT
                links.append((frame_row[frame_key], pair_row[(lo, hi)], table, frame_key, evidence, value))
    return links


selpref_words = st.sampled_from(["ant", "bee", "cat", "dog", "elk"])  # "elk" is in no dataset pair


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_selpref_matches_the_reference_walk(data):
    labels = st.dictionaries(st.sampled_from([SIZE, WEIGHT]), st.sampled_from([GT, EQ, LT]), min_size=1)
    verbs = data.draw(st.lists(st.sampled_from(["eat", "hit", "see"]), unique=True))  # "run" is in none
    pairs = data.draw(st.lists(st.sampled_from(list(combinations(["ant", "bee", "cat", "dog"], 2))), unique=True))
    ds = make_dataset(
        frames=[(verb, "dobj", None, "seed", data.draw(labels)) for verb in verbs],
        pairs=[(x, y, "dev", data.draw(labels)) for x, y in pairs],
    )
    # Small counts over few words, some rows mirrored: both orientations, ties and p == q are common.
    rows = data.draw(st.lists(st.tuples(st.sampled_from(["eat", "hit", "run"]), selpref_words, selpref_words,
                                        st.integers(1, 3)), min_size=1, max_size=25))
    mirrored = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    rows += [(verb, y, x, count) for (verb, x, y, count), mirror in zip(rows, mirrored) if mirror]
    stats = CooccurrenceStats([f"{v}:dobj:-" for v, *_ in rows], [r[1] for r in rows], [r[2] for r in rows],
                              [r[3] for r in rows])
    values = stats.entry_pmi(np.arange(len(stats.count)))
    threshold = data.draw(st.sampled_from([-10.0, 0.0, *values.tolist()]))  # also exactly at some PMI
    expected = make_nodes(ds)
    links = reference_selpref_links(expected, stats, threshold)
    frames, pair_rows, tables = np.array([link[:3] for link in links], dtype=np.int64).reshape(-1, 3).T
    frame_vars, pair_vars = expected.item_vars[0][frames], expected.item_vars[1][pair_rows]
    both = (frame_vars >= 0) & (pair_vars >= 0)
    table = np.broadcast_to(tables[:, None], both.shape)[both]
    expected.add("selpref", frame_vars[both], pair_vars[both], table)

    cfg = BuildConfig(pmi_threshold=threshold)
    actual = make_nodes(ds)
    add_selectional_preference_factors(actual, stats, cfg)
    assert dump_graph(actual.graph) == dump_graph(expected.graph)
    for *_, frame_key, evidence, value in links:
        assert pmi(stats, frame_key, evidence) == values[entry_row(stats, frame_key, evidence)] == value


# -- similarity factors --


def test_object_similarity_same_side_and_opposite_side():
    # cup ~ mug; comparator appears on the same side for (cup, table) /
    # (mug, table) and on opposite sides for (apple, cup) / (mug, ...).
    close = np.zeros(50)
    close[0] = 1.0
    ds = make_dataset(
        pairs=[
            ("cup", "table", "dev", {SIZE: LT}),
            ("mug", "table", "dev", {SIZE: LT}),
            ("apple", "cup", "dev", {SIZE: LT}),
            ("apple", "mug", "dev", {SIZE: LT}),
        ]
    )
    emb = embeddings_for(
        obj_vecs={
            "cup": close,
            "mug": close + 1e-3,
            "table": np.concatenate([[0.0, 1.0], np.zeros(48)]),
            "apple": np.concatenate([[0.0, 0.0, 1.0], np.zeros(47)]),
        }
    )
    b = make_nodes(ds)
    cfg = BuildConfig(obj_sim_threshold=0.9)
    add_similarity_factors(b, emb, cfg)
    by_scope = {tuple(sorted(f.scope)): f for f in factors(b.graph) if f.arity == 2}
    cup_table = variable(b.graph, ObjectPairNode("cup", "table", SIZE))
    mug_table = variable(b.graph, ObjectPairNode("mug", "table", SIZE))
    apple_cup = variable(b.graph, ObjectPairNode("apple", "cup", SIZE))
    apple_mug = variable(b.graph, ObjectPairNode("apple", "mug", SIZE))
    # Same side: cup and mug both first against table -> agreement table.
    same = by_scope[tuple(sorted((cup_table, mug_table)))]
    assert np.array_equal(same.table, SOFT_ONE)
    # Same side again: cup and mug both second against apple.
    same2 = by_scope[tuple(sorted((apple_cup, apple_mug)))]
    assert np.array_equal(same2.table, SOFT_ONE)
    assert kind_counts(b)["objsim"] == 2


def test_object_similarity_opposite_sides_uses_flipped_table():
    close = np.zeros(50)
    close[0] = 1.0
    # Comparator "m" sits between the similar objects alphabetically, so the
    # canonical nodes are (b, m) and (m, z): b first, z second -> flipped.
    ds = make_dataset(
        pairs=[
            ("b", "m", "dev", {SIZE: GT}),
            ("m", "z", "dev", {SIZE: LT}),
        ]
    )
    emb = embeddings_for(
        obj_vecs={"b": close, "z": close + 1e-3, "m": np.concatenate([[0.0, 1.0], np.zeros(48)])}
    )
    b_ = make_nodes(ds)
    add_similarity_factors(b_, emb, BuildConfig(obj_sim_threshold=0.9))
    assert kind_counts(b_)["objsim"] == 1
    assert np.array_equal(factors(b_.graph)[0].table, flipped_table(SOFT_ONE))


def test_directly_similar_pair_gets_eq_unary():
    close = np.zeros(50)
    close[0] = 1.0
    ds = make_dataset(pairs=[("cup", "mug", "dev", {SIZE: EQ})])
    emb = embeddings_for(obj_vecs={"cup": close, "mug": close + 1e-3})
    b = make_nodes(ds)
    add_similarity_factors(b, emb, BuildConfig(obj_sim_threshold=0.9))
    assert kind_counts(b)["objsim"] == 1
    factor = factors(b.graph)[0]
    assert factor.arity == 1
    assert np.array_equal(factor.table, SOFT_ONE[EQ])


def test_similarity_threshold_above_all_cosines_gives_no_factors():
    ds = make_dataset(
        pairs=[("cup", "table", "dev", {SIZE: LT}), ("mug", "table", "dev", {SIZE: LT})]
    )
    emb = embeddings_for(objects=("cup", "mug", "table"))
    b = make_nodes(ds)
    add_similarity_factors(b, emb, BuildConfig(obj_sim_threshold=1.1, verb_sim_threshold=1.1))
    assert kind_counts(b)["objsim"] == 0 and kind_counts(b)["verbsim"] == 0


def test_similarity_factors_go_to_the_graph_chunk_by_chunk(tmp_path):
    # Each attribute's factors go to the graph as they are made, so the stage
    # holds little beyond the factors it keeps.
    generate_world(tmp_path, n_objects=60, n_verbs=20, n_pairs=900)
    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="test")
    prepared = prepare(spec, DataPaths.from_dir(tmp_path))
    nodes = make_nodes(prepared.dataset)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        add_similarity_factors(nodes, prepared.emb, BuildConfig())
        retained, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert nodes.report["verbsim"] and nodes.report["framesim"] and nodes.report["objsim"]
    assert peak - retained <= 1.5 * retained


def test_similar_pairs_follow_the_scalar_cosine_rule():
    rng = np.random.default_rng(5)
    vectors = {f"w{i}": rng.normal(size=50) for i in range(6)}
    vectors["zero"] = np.zeros(50)
    store = EmbeddingStore(50, vectors)
    words = sorted(vectors) + ["unknown"]
    for threshold in (-0.5, -1e-9, 0.0, 0.3):
        mask = similar_pairs(store, words, threshold)
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                expected = u in vectors and v in vectors and cosine(vectors[u], vectors[v]) > threshold
                assert mask[i, j] == expected, (u, v, threshold)


def test_zero_norm_object_links_under_a_negative_threshold():
    # cosine(zero, anything) is 0.0: above -0.5, not above 0.0. "a" and "m"
    # point in opposite directions, so they never link.
    a = np.concatenate([[1.0], np.zeros(49)])
    ds = make_dataset(pairs=[("a", "m", "dev", {SIZE: LT}), ("m", "zero", "dev", {SIZE: GT})])
    emb = embeddings_for(obj_vecs={"a": a, "m": -a, "zero": np.zeros(50)})
    b = make_nodes(ds)
    add_similarity_factors(b, emb, BuildConfig(obj_sim_threshold=-0.5))
    # (a, zero) share comparator m, which sits between them: flipped link;
    # (m, zero) is itself a node: EQ nudge.
    a_m = variable(b.graph, ObjectPairNode("a", "m", SIZE))
    m_zero = variable(b.graph, ObjectPairNode("m", "zero", SIZE))
    assert kind_counts(b)["objsim"] == 2
    assert factors(b.graph)[0].scope == (a_m, m_zero)
    assert np.array_equal(factors(b.graph)[0].table, flipped_table(SOFT_ONE))
    assert factors(b.graph)[1].scope == (m_zero,)
    assert np.array_equal(factors(b.graph)[1].table, SOFT_ONE[EQ])
    unlinked = make_nodes(ds)
    add_similarity_factors(unlinked, emb, BuildConfig(obj_sim_threshold=0.0))
    assert len(factors(unlinked.graph)) == 0


def test_verb_similarity_links_matching_frame_shapes_only():
    sim = np.zeros(100)
    sim[0] = 1.0
    ds = make_dataset(
        frames=[
            ("hurl", "dobj", None, "seed", {SIZE: GT}),
            ("hurl", "pobj", "at", "seed", {SIZE: GT}),
            ("toss", "dobj", None, "dev", {SIZE: GT}),
            ("toss", "pobj", "to", "dev", {SIZE: GT}),
        ]
    )
    emb = embeddings_for(verb_vecs={"hurl": sim, "toss": sim + 1e-3})
    b = make_nodes(ds)
    cfg = BuildConfig(verb_sim_threshold=0.9, enabled_factor_kinds=frozenset({"verbsim"}))
    add_similarity_factors(b, emb, cfg)
    # Only the dobj frames match on (type, preposition); the pobj frames
    # differ in preposition.
    assert kind_counts(b)["verbsim"] == 1
    factor = factors(b.graph)[0]
    assert {b.graph.node_of(v).verb for v in factor.scope} == {"hurl", "toss"}


def test_frame_similarity_links_same_role_pairs_within_verb():
    assert frames_link("dobj", "pobj")  # agent-theme vs agent-goal
    assert not frames_link("dobj", "dobj_pobj")  # agent-theme vs theme-goal
    ds = make_dataset(
        frames=[
            ("throw", "dobj", None, "seed", {SIZE: GT}),
            ("throw", "pobj", "at", "seed", {SIZE: GT}),
            ("throw", "dobj_pobj", "with", "seed", {SIZE: GT}),
        ]
    )
    emb = embeddings_for(verbs=("throw",))
    b = make_nodes(ds)
    cfg = BuildConfig(enabled_factor_kinds=frozenset({"framesim"}))
    add_similarity_factors(b, emb, cfg)
    assert kind_counts(b)["framesim"] == 1


# -- cross-attribute factors --


def agreement_dataset(weight_labels):
    frames = []
    for i, w in enumerate(weight_labels):
        frames.append((f"v{i}", "dobj", None, "seed", {SIZE: GT, WEIGHT: w}))
    return make_dataset(frames=frames)


def test_attrsim_links_when_agreement_high():
    ds = agreement_dataset([GT, GT, GT, GT])
    b = make_nodes(ds)
    add_attribute_factors(b, BuildConfig(min_shared_seed_frames=2))
    assert kind_counts(b)["attrsim"] == 4  # one per shared frame


def test_attrsim_skips_low_agreement():
    ds = agreement_dataset([GT, GT, LT, LT])
    b = make_nodes(ds)
    add_attribute_factors(b, BuildConfig(min_shared_seed_frames=2))
    assert kind_counts(b)["attrsim"] == 0


def test_attrsim_agreement_counts_only_frames_seeded_in_both():
    # Four frames: two agree and carry both labels; two disagree but lack a
    # weight label, so they must not drag agreement below threshold.
    ds = make_dataset(
        frames=[
            ("v0", "dobj", None, "seed", {SIZE: GT, WEIGHT: GT}),
            ("v1", "dobj", None, "seed", {SIZE: GT, WEIGHT: GT}),
            ("v2", "dobj", None, "seed", {SIZE: GT}),
            ("v3", "dobj", None, "seed", {SIZE: LT}),
        ]
    )
    b = make_nodes(ds)
    add_attribute_factors(b, BuildConfig(min_shared_seed_frames=2))
    # Agreement over shared-seeded frames is 2/2 = 100%; links added for the
    # frames present in both graphs (v0 and v1 only).
    assert kind_counts(b)["attrsim"] == 2


def test_attrsim_requires_min_shared_frames():
    ds = agreement_dataset([GT])
    b = make_nodes(ds)
    add_attribute_factors(b, BuildConfig(min_shared_seed_frames=10))
    assert kind_counts(b)["attrsim"] == 0


def test_attrsim_skips_attribute_pairs_with_no_shared_seed_frame():
    # Size and weight label different seed frames: their agreement is
    # undefined, so they get no factor even when no minimum of shared
    # frames is asked for.
    frames = [("v0", "dobj", None, "seed", {SIZE: GT}), ("v1", "dobj", None, "seed", {WEIGHT: LT})]
    cfg = BuildConfig(min_shared_seed_frames=0, enabled_factor_kinds=frozenset({"seed", "attrsim"}))
    b = build(make_dataset(frames=frames), None, None, None, cfg)
    assert b.graph.n_variables == 2
    assert kind_counts(b) == {"seed": 2, "emb": 0, "selpref": 0, "verbsim": 0, "framesim": 0, "objsim": 0, "attrsim": 0}
    # One frame labeled along both, in agreement, is enough at that minimum.
    frames.append(("v2", "dobj", None, "seed", {SIZE: GT, WEIGHT: GT}))
    assert kind_counts(build(make_dataset(frames=frames), None, None, None, cfg))["attrsim"] == 1


def test_only_attrsim_crosses_attributes(world):
    from physrel.harness import TaskSpec, assemble_task_dataset, load_world

    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed", "dev"}, {"seed", "dev"})
    emb, stats = load_world(world.paths)
    models = train_models(ds, emb)
    cfg = BuildConfig(min_shared_seed_frames=2)
    b = build(ds, emb, stats, models, cfg)
    assert b.report.get("attrsim", 0) > 0
    for f in factors(b.graph):
        attrs = {b.graph.node_of(v).attribute for v in f.scope}
        if len(attrs) > 1:
            assert f.kind == "attrsim"


def test_bulk_predict_proba_matches_one_row_calls(world):
    # Classifier rows of the graph come from one call per model over a
    # feature matrix; graph dumps write them with repr, so each row must
    # carry the bits of a one-row call and of the plain one-row softmax.
    from physrel.harness import TaskSpec, assemble_task_dataset, load_world

    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed", "dev"}, {"seed", "dev"})
    emb, _ = load_world(world.paths)
    models = train_models(ds, emb)
    assert len(models.models) == 10
    for (attribute, node_class), model in models.models.items():
        kind = next(k for k, c in NODE_CLASSES.items() if c == node_class)
        features = featurize_items(kind, getattr(ds, kind), emb)
        bulk = predict_proba(model, features)
        assert bulk.shape == (len(features), 3)
        for x, row in zip(features, bulk):
            scores = model.weights @ x + model.bias
            exp = np.exp(scores - scores.max())
            assert np.array_equal(row, predict_proba(model, x))
            assert np.array_equal(row, exp / exp.sum())


def assert_same_models(trained: dict, expected: dict) -> None:
    assert list(trained) == list(expected)
    for (attribute, node_class), model in expected.items():
        got = trained[(attribute, node_class)]
        assert (got.attribute, got.node_class) == (attribute, node_class)
        assert np.array_equal(got.weights, model.weights) and np.array_equal(got.bias, model.bias)


def test_train_models_equals_one_descent_per_model():
    # Frames: SIZE and STRENGTH label the same seed frames and train together;
    # WEIGHT labels others and trains alone; SPEED labels no seed item and
    # gets no model. Pairs: SIZE and WEIGHT label the same seed pairs,
    # STRENGTH only one of them.
    frames = [
        ("throw", "dobj", None, "seed", {SIZE: GT, STRENGTH: LT}),
        ("carry", "dobj", None, "seed", {SIZE: LT, STRENGTH: GT, WEIGHT: EQ}),
        ("push", "pobj", "into", "seed", {WEIGHT: GT}),
        ("lift", "dobj", None, "seed", {SIZE: EQ, STRENGTH: EQ, WEIGHT: LT}),
        ("drop", "pobj", "at", "dev", {SIZE: GT, SPEED: GT}),
    ]
    pairs = [
        ("ant", "zebra", "seed", {SIZE: LT, WEIGHT: LT}),
        ("car", "house", "seed", {SIZE: LT, WEIGHT: GT}),
        ("ant", "car", "seed", {SIZE: EQ, WEIGHT: EQ, STRENGTH: GT}),
        ("house", "zebra", "dev", {SIZE: GT, SPEED: LT}),
    ]
    ds = make_dataset(frames=frames, pairs=pairs)
    objects, verbs = ("ant", "zebra", "car", "house", "into", "at"), ("throw", "carry", "push", "lift", "drop")
    emb = embeddings_for(objects=objects, verbs=verbs)
    cfg = TrainConfig(epochs=60, learning_rate=0.3)
    expected = one_descent_per_model(ds, emb, cfg)
    assert (SPEED, "frame") not in expected and (WEIGHT, "frame") in expected
    assert_same_models(train_models(ds, emb, cfg).models, expected)


def test_train_models_on_the_world_keeps_order_and_bits(world):
    from physrel.harness import TaskSpec, assemble_task_dataset, load_world

    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="test")
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed"}, {"seed"})
    emb, _ = load_world(world.paths)
    models = train_models(ds, emb).models
    assert list(models) == [(a, c) for a in ATTRIBUTES for c in ("frame", "object-pair")]
    assert_same_models(models, one_descent_per_model(ds, emb))


# -- build orchestration --


def test_build_report_and_kind_gating(world):
    from physrel.harness import TaskSpec, assemble_task_dataset, load_world

    spec = TaskSpec(task="objects", cross_seed_fraction="5", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed", "dev"}, {"seed", "dev"})
    emb, stats = load_world(world.paths)
    models = train_models(ds, emb)
    full = build(ds, emb, stats, models, BuildConfig())
    ablated_cfg = BuildConfig(enabled_factor_kinds=frozenset(set(FACTOR_KINDS) - {"selpref"}))
    ablated = build(ds, emb, stats, models, ablated_cfg)
    full_counts, ablated_counts = kind_counts(full), kind_counts(ablated)
    assert full_counts["selpref"] > 0 and ablated_counts["selpref"] == 0
    for kind in FACTOR_KINDS:
        if kind != "selpref":
            assert full_counts[kind] == ablated_counts[kind]
    for f in factors(ablated.graph):
        assert f.kind in ablated_cfg.enabled_factor_kinds


def test_build_deterministic_dump(world):
    from physrel.harness import TaskSpec, assemble_task_dataset, load_world

    spec = TaskSpec(task="frames", cross_seed_fraction="5", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed", "dev"}, {"seed", "dev"})
    emb, stats = load_world(world.paths)
    models = train_models(ds, emb)
    d1 = dump_graph(build(ds, emb, stats, models, BuildConfig()).graph)
    d2 = dump_graph(build(ds, emb, stats, models, BuildConfig()).graph)
    assert d1 == d2


# Similarity thresholds below every cosine and gates that pass every
# co-occurrence and attribute pair: each family emits all it can.
PERMISSIVE = BuildConfig(
    verb_sim_threshold=-1.0,
    obj_sim_threshold=-1.0,
    pmi_threshold=-100.0,
    attr_agreement_threshold=0.0,
    min_shared_seed_frames=0,
)


@pytest.mark.parametrize("cfg", [BuildConfig(), PERMISSIVE], ids=["default", "permissive"])
@pytest.mark.parametrize("task", ["frames", "objects"])
def test_no_two_factors_share_kind_and_scope(world, task, cfg):
    # The builder adds what each family emits without deduplicating, so
    # every family must emit each (kind, unordered scope) at most once.
    from physrel.harness import TaskSpec, assemble_task_dataset, load_world

    spec = TaskSpec(task=task, cross_seed_fraction="20", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed", "dev"}, {"seed", "dev"})
    emb, stats = load_world(world.paths)
    b = build(ds, emb, stats, train_models(ds, emb), cfg)
    kind, scope, _, _ = b.graph.columns()
    if cfg == PERMISSIVE:
        assert set(b.report) == set(FACTOR_KINDS)  # every family takes part
    rows = np.column_stack([kind, scope.min(axis=1), scope.max(axis=1)])
    assert len(np.unique(rows, axis=0)) == len(rows) == len(factors(b.graph))


def test_build_config_file_round_trip(tmp_path):
    cfg = BuildConfig(
        verb_sim_threshold=0.61,
        obj_sim_threshold=0.8,
        pmi_threshold=1.5,
        enabled_factor_kinds=frozenset({"seed", "emb", "selpref"}),
        emb_objects=False,
    )
    path = tmp_path / "build.cfg"
    path.write_text(cfg.to_text(), encoding="utf-8")
    assert BuildConfig.from_file(path) == cfg
    assert BuildConfig.from_file(path).to_text() == cfg.to_text()


def test_build_config_validation():
    with pytest.raises(ValueError):
        BuildConfig(enabled_factor_kinds=frozenset({"seed", "mystery"}))
    with pytest.raises(ValueError):
        BuildConfig(pmi_threshold=float("nan"))
    with pytest.raises(ValueError, match="attr_agreement_threshold"):
        BuildConfig(attr_agreement_threshold=float("nan"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed_frames", "false"),
        ("seed_objects", 1),
        ("emb_frames", None),
        ("emb_objects", np.bool_(True)),
        ("min_shared_seed_frames", 2.5),
        ("min_shared_seed_frames", True),
        ("min_shared_seed_frames", -1),
        ("min_shared_seed_frames", "3"),
        ("verb_sim_threshold", True),
        ("obj_sim_threshold", False),
        ("pmi_threshold", "0.5"),
        ("attr_agreement_threshold", True),
        ("enabled_factor_kinds", ["seed"]),
        ("enabled_factor_kinds", {"seed"}),
        ("enabled_factor_kinds", "seed"),
    ],
)
def test_build_config_rejects_values_its_text_cannot_carry(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        BuildConfig(**{field: value})


@pytest.mark.parametrize(
    "cfg",
    [
        BuildConfig(min_shared_seed_frames=0),
        BuildConfig(obj_sim_threshold=1),
        BuildConfig(pmi_threshold=np.float64(0.25)),
    ],
    ids=["no-minimum", "int-threshold", "numpy-threshold"],
)
def test_build_config_edge_values_round_trip(tmp_path, cfg):
    path = tmp_path / "build.cfg"
    path.write_text(cfg.to_text(), encoding="utf-8")
    assert BuildConfig.from_file(path) == cfg
    assert hash(BuildConfig.from_file(path)) == hash(cfg)
    assert BuildConfig.from_file(path).to_text() == cfg.to_text()  # equal configs, one text and fingerprint


def test_build_config_text_is_pinned():
    # The text feeds every report's config fingerprint.
    assert BuildConfig().to_text() == (
        "verb_sim_threshold=0.55\nobj_sim_threshold=0.7\npmi_threshold=0.0\n"
        "attr_agreement_threshold=0.95\nmin_shared_seed_frames=10\n"
        "enabled_factor_kinds=attrsim,emb,framesim,objsim,seed,selpref,verbsim\n"
        "seed_frames=True\nseed_objects=True\nemb_frames=True\nemb_objects=True\n"
    )


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("seed_frames=Flase", r"line 2: expected true or false"),
        ("verb_sim_threshold=abc", r"line 2: could not convert"),
        ("min_shared_seed_frames=2.5", r"line 2: invalid literal"),
        ("mystery=1", r"line 2: unknown config key"),
        ("pmi_threshold", r"line 2: expected key=value"),
        ("attr_agreement_threshold=nan", r"attr_agreement_threshold must be finite"),
        ("emb_objects=true", r"line 3: 'emb_objects' is set twice"),
    ],
)
def test_build_config_file_names_the_bad_line(tmp_path, bad_line, message):
    path = tmp_path / "build.cfg"
    path.write_text("# tuned\n" + bad_line + "\nemb_objects=false\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + message):
        BuildConfig.from_file(path)
