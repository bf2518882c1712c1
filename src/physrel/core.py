"""Shared vocabulary: attributes, relation values, node identities.

Every belief, message, and potential table in the package is indexed by the
canonical relation order (GT=0, EQ=1, LT=2). Object pairs are stored once, in
lexicographic order; the opposite orientation is recovered at query time by
permuting the GT/LT entries.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np


class Attribute(enum.Enum):
    """The five physical dimensions a relation is measured along."""

    SIZE = "size"
    WEIGHT = "weight"
    STRENGTH = "strength"
    RIGIDNESS = "rigidness"
    SPEED = "speed"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "Attribute":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(f"unknown attribute token {token!r}") from None


ATTRIBUTES = tuple(Attribute)


class RelationValue(enum.IntEnum):
    """Three-way relation with fixed index order GT=0, EQ=1, LT=2."""

    GT = 0
    EQ = 1
    LT = 2


N_VALUES = 3

# TSV tokens for relations.
RELATION_TOKENS = {">": RelationValue.GT, "=": RelationValue.EQ, "<": RelationValue.LT}
TOKEN_OF_RELATION = {v: k for k, v in RELATION_TOKENS.items()}

# Index permutation realizing orientation reversal: GT and LT swap, EQ fixed.
FLIP_INDEX = np.array([2, 1, 0])


def relation_from_token(token: str) -> RelationValue:
    try:
        return RELATION_TOKENS[token.strip()]
    except KeyError:
        raise ValueError(f"unknown relation token {token!r}") from None


def flip(r: RelationValue) -> RelationValue:
    """Relation seen from the opposite orientation: GT<->LT, EQ fixed."""
    return RelationValue(FLIP_INDEX[r])


def flip_belief(p: np.ndarray) -> np.ndarray:
    """Belief over (x, y) re-expressed as a belief over (y, x)."""
    return np.asarray(p)[FLIP_INDEX]


# Registered frame relation types. Each type names the pair of argument roles
# the relation is measured between; the tuple order fixes the one-hot layout
# used by the frame feature function.
FRAME_TYPES = ("dobj", "pobj", "dobj_pobj")

FRAME_TYPE_ROLES = {
    "dobj": ("agent", "theme"),
    "pobj": ("agent", "goal"),
    "dobj_pobj": ("theme", "goal"),
}


def format_frame_key(verb: str, frame_type: str, preposition: Optional[str]) -> str:
    """Attribute-independent frame identity, as co-occurrence files spell it:
    ``verb:frame_type:prep``, with ``-`` for no preposition."""
    return f"{verb}:{frame_type}:{preposition or '-'}"


def frame_type_index(frame_type: str) -> int:
    try:
        return FRAME_TYPES.index(frame_type)
    except ValueError:
        raise ValueError(f"unregistered frame type {frame_type!r}") from None


@dataclass(frozen=True)
class ObjectPairNode:
    """Random variable for the relative attribute value of two objects.

    Ids are stored in lexicographic order (guaranteed by the constructor);
    :func:`ordered_pair` puts evidence in arbitrary order into that order.
    """

    x: str
    y: str
    attribute: Attribute

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError(f"identity pair ({self.x!r}, {self.x!r}) carries no information")
        if self.x > self.y:
            raise ValueError(f"pair ({self.x!r}, {self.y!r}) is not in canonical order")

    @property
    def key(self) -> str:
        return f"pair:{self.attribute}:{self.x}|{self.y}"

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class FrameNode:
    """Random variable for the relation a verb frame implies between its
    two (ungrounded) arguments."""

    verb: str
    frame_type: str
    preposition: Optional[str]
    attribute: Attribute

    @property
    def frame_key(self) -> str:
        """Attribute-independent frame identity, used by co-occurrence data."""
        return format_frame_key(self.verb, self.frame_type, self.preposition)

    @property
    def key(self) -> str:
        return f"frame:{self.attribute}:{self.frame_key}"

    def __str__(self) -> str:
        return self.key


NodeRef = Union[ObjectPairNode, FrameNode]


def ordered_pair(x: str, y: str) -> tuple[str, str, bool]:
    """Lexicographically ordered ids plus whether the input was swapped."""
    if x == y:
        raise ValueError(f"identity pair ({x!r}, {x!r}) is rejected")
    if x <= y:
        return x, y, False
    return y, x, True
