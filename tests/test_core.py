"""Vocabulary types: relation flips, canonical pair storage."""
import numpy as np
import pytest

from physrel.core import (
    ATTRIBUTES,
    Attribute,
    FrameNode,
    ObjectPairNode,
    RelationValue,
    flip,
    flip_belief,
    frame_type_index,
    ordered_pair,
    relation_from_token,
)

SIZE = Attribute.SIZE


def test_attribute_members():
    assert [a.value for a in ATTRIBUTES] == ["size", "weight", "strength", "rigidness", "speed"]
    assert Attribute.from_token("Weight") is Attribute.WEIGHT
    with pytest.raises(ValueError):
        Attribute.from_token("mass")


def test_relation_index_order():
    assert (int(RelationValue.GT), int(RelationValue.EQ), int(RelationValue.LT)) == (0, 1, 2)
    assert relation_from_token(">") is RelationValue.GT
    assert relation_from_token("=") is RelationValue.EQ
    assert relation_from_token("<") is RelationValue.LT
    with pytest.raises(ValueError):
        relation_from_token("~")


def test_flip_values():
    assert flip(RelationValue.GT) is RelationValue.LT
    assert flip(RelationValue.LT) is RelationValue.GT
    assert flip(RelationValue.EQ) is RelationValue.EQ


def test_flip_is_involution():
    for r in RelationValue:
        assert flip(flip(r)) is r


def canonicalize(x: str, y: str, r: RelationValue, attribute: Attribute) -> tuple[ObjectPairNode, RelationValue]:
    """Store-once form of an observed pair relation, as the dataset loader
    builds it: the canonical node, and the relation flipped iff the ids were."""
    lo, hi, swapped = ordered_pair(x, y)
    return ObjectPairNode(lo, hi, attribute), (flip(r) if swapped else r)


def test_canonicalize_swaps_and_flips():
    node, rel = canonicalize("person", "basketball", RelationValue.GT, SIZE)
    assert (node.x, node.y) == ("basketball", "person")
    assert rel is RelationValue.LT


def test_canonicalize_keeps_ordered_input():
    node, rel = canonicalize("ant", "zebra", RelationValue.LT, SIZE)
    assert (node.x, node.y) == ("ant", "zebra")
    assert rel is RelationValue.LT


def test_canonicalize_rejects_identity_pair():
    with pytest.raises(ValueError):
        canonicalize("car", "car", RelationValue.EQ, SIZE)


def test_canonicalize_is_idempotent():
    node, rel = canonicalize("zebra", "ant", RelationValue.GT, SIZE)
    again, rel2 = canonicalize(node.x, node.y, rel, SIZE)
    assert again == node and rel2 is rel


def test_object_pair_node_enforces_canonical_order():
    with pytest.raises(ValueError):
        ObjectPairNode("zebra", "ant", SIZE)
    with pytest.raises(ValueError):
        ObjectPairNode("ant", "ant", SIZE)


def test_ordered_pair():
    assert ordered_pair("b", "a") == ("a", "b", True)
    assert ordered_pair("a", "b") == ("a", "b", False)
    with pytest.raises(ValueError):
        ordered_pair("a", "a")


def test_flip_belief_permutes_gt_lt():
    p = np.array([0.6, 0.3, 0.1])
    assert np.array_equal(flip_belief(p), [0.1, 0.3, 0.6])
    assert np.array_equal(flip_belief(flip_belief(p)), p)


def test_frame_node_keys():
    node = FrameNode("threw", "dobj", None, SIZE)
    assert node.frame_key == "threw:dobj:-"
    assert node.key == "frame:size:threw:dobj:-"
    with_prep = FrameNode("ran", "pobj", "into", Attribute.SPEED)
    assert with_prep.frame_key == "ran:pobj:into"


def test_frame_type_registry():
    assert frame_type_index("dobj") == 0
    with pytest.raises(ValueError):
        frame_type_index("xcomp")
