"""Log-linear 3-class classifier over embedding features.

Supplies the unary potentials attached to every graph node and the
embedding-only baseline. Features are built from pretrained word vectors:
an object pair is the concatenation of its two object vectors; a frame is
frame-type one-hot + verb vector + preposition vector (zeros when the frame
has no preposition). Out-of-vocabulary words contribute zero vectors, never
random ones.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .core import Attribute, FRAME_TYPES, N_VALUES, frame_type_index
from .lexstats import Embeddings

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient descent settings; deterministic given rng_seed."""

    l2_lambda: float = 1e-3
    learning_rate: float = 0.1
    epochs: int = 500
    rng_seed: int = 0

    def __post_init__(self):
        if isinstance(self.l2_lambda, bool) or not (0 <= self.l2_lambda < math.inf):  # nan fails too
            raise ValueError(f"l2_lambda must be finite and >= 0, not {self.l2_lambda!r}")
        if isinstance(self.learning_rate, bool) or not (0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and > 0, not {self.learning_rate!r}")
        for name, least in (("epochs", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an int >= {least}, not {value!r}")


@dataclass
class MaxentModel:
    weights: np.ndarray  # (3, dim)
    bias: np.ndarray  # (3,)
    attribute: Optional[Attribute] = None
    node_class: Optional[str] = None

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def featurize_object_pair(p, q, emb: Embeddings) -> np.ndarray:
    """Concatenation of the two object vectors; zeros for OOV words. Given
    equal-length sequences of words instead of two words, one row per pair."""
    single = isinstance(p, str)
    xs, ys = ([p], [q]) if single else (list(p), list(q))
    vectors = _lookup(emb.objects, xs + ys, "object")
    features = np.concatenate([vectors[: len(xs)], vectors[len(xs) :]], axis=1)
    return features[0] if single else features


def featurize_frame(verb, frame_type, preposition, emb: Embeddings) -> np.ndarray:
    """Frame-type one-hot + verb vector + preposition vector (zeros when None).
    Given equal-length sequences instead of one frame's fields, one row per frame."""
    single = isinstance(verb, str)
    verbs, types, preps = ([verb], [frame_type], [preposition]) if single else (verb, frame_type, preposition)
    one_hot = np.eye(len(FRAME_TYPES))[[frame_type_index(t) for t in types]]
    vectors = [one_hot, _lookup(emb.verbs, verbs, "verb"), _lookup(emb.objects, preps, "object")]
    features = np.concatenate(vectors, axis=1)
    return features[0] if single else features


def _lookup(store, words: Sequence[Optional[str]], name: str) -> np.ndarray:
    """(len(words), dim) vectors of the words; zeros for None and for words
    the store lacks, which one warning lists with their lookup counts."""
    vectors = {word: store.get(word) for word in dict.fromkeys(words) if word is not None}
    missing = Counter(word for word in words if word is not None and vectors[word] is None)
    if missing:
        listed = ", ".join(f"{word!r} x{n}" for word, n in missing.items())
        logger.warning("no %s embedding for %s; substituting zeros", name, listed)
    zeros = np.zeros(store.dim)
    rows = [zeros if word is None or vectors[word] is None else vectors[word] for word in words]
    return np.array(rows).reshape(len(words), store.dim)


def gradients(weights: np.ndarray, bias: np.ndarray, X: np.ndarray, onehot: np.ndarray, l2_lambda: float):
    """Class probabilities of the rows of X, and the gradients of the mean
    NLL of the one-hot labels ``onehot`` + 0.5*lambda*||W||^2 (bias
    unregularized) with respect to the weights and the bias.

    Given a stack of m models (weights ``(m, 3, dim)``, bias ``(m, 3)``,
    labels ``(m, n, 3)``), each model's results carry the bits it gets
    alone: both products run one 2-D product per model, and the sums over
    the three classes add in the order ``sum(axis=-1)`` does.
    """
    n = X.shape[0]
    scores = np.matmul(X, np.swapaxes(weights, -1, -2)) + bias[..., None, :]
    scores -= np.maximum(np.maximum(scores[..., 0], scores[..., 1]), scores[..., 2])[..., None]
    exp = np.exp(scores)
    probs = exp / ((exp[..., 0] + exp[..., 1]) + exp[..., 2])[..., None]
    delta = probs - onehot
    grad_w = np.matmul(np.swapaxes(delta, -1, -2), X) / n + l2_lambda * weights
    grad_b = np.add.reduce(delta, axis=-2) / n
    return probs, grad_w, grad_b


def train(
    X,
    y,
    cfg: TrainConfig = TrainConfig(),
    attribute: Optional[Attribute | Sequence[Attribute]] = None,
    node_class: Optional[str] = None,
) -> MaxentModel | list[MaxentModel]:
    """Minimize the regularized NLL of the labels ``y`` (RelationValue codes)
    of the rows of the (n, dim) feature matrix ``X`` by full-batch gradient
    descent. Each step computes only the gradients, never the loss.

    ``y`` of shape (n,) trains one model. ``y`` of shape (n, m) trains one
    model per column in one stacked descent, ``attribute`` naming one
    attribute per column, and returns the list of models: each is the model
    its column alone would give, bit for bit. Weights or bias that end up
    not finite (a feature so large that the descent overflows) raise.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.ndim not in (1, 2) or y.shape[:1] != X.shape[:1]:
        raise ValueError(f"features of shape {X.shape} do not fit labels of shape {y.shape}")
    if not len(X):
        raise ValueError("empty training set")
    outside = sorted(set(y[(y < 0) | (y >= N_VALUES)].tolist()))
    if outside:
        raise ValueError(f"label codes must lie in 0..{N_VALUES - 1}, got {outside}")
    labels = y.reshape(len(y), -1).T
    # Every model starts from the same draw, the one it would get alone.
    rng = np.random.default_rng(cfg.rng_seed)
    weights = np.repeat(rng.normal(scale=0.01, size=(1, N_VALUES, X.shape[1])), len(labels), axis=0)
    bias = np.zeros((len(labels), N_VALUES))
    onehot = np.eye(N_VALUES)[labels]
    for _ in range(cfg.epochs):
        _, grad_w, grad_b = gradients(weights, bias, X, onehot, cfg.l2_lambda)
        weights -= cfg.learning_rate * grad_w
        bias -= cfg.learning_rate * grad_b
    attributes = attribute if y.ndim == 2 and attribute is not None else [attribute] * len(labels)
    diverged = ~(np.isfinite(weights).all(axis=(1, 2)) & np.isfinite(bias).all(axis=1))
    if diverged.any():
        names = ", ".join(str(a) for a, bad in zip(attributes, diverged) if bad)
        raise ValueError(f"training diverged for attribute(s) {names} of node class {node_class}: weights not finite")
    models = [MaxentModel(w, b, a, node_class) for w, b, a in zip(weights, bias, attributes)]
    return models if y.ndim == 2 else models[0]


def predict_proba(model: MaxentModel, x) -> np.ndarray:
    """Softmax class probabilities: a valid belief per row of an (n, dim)
    feature matrix, or the one belief of a (dim,) feature vector."""
    X = np.asarray(x, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != model.dim:
        raise ValueError(f"feature shape {X.shape} does not match model dim {model.dim}")
    # One matrix-vector product per row gives every row the bits a one-row
    # product gives; X @ W.T can differ from it in the last place.
    scores = np.matmul(model.weights, X.reshape(-1, model.dim)[:, :, None])[:, :, 0] + model.bias
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return probs.reshape(X.shape[:-1] + (N_VALUES,))


def save_model(model: MaxentModel) -> str:
    """The model's text form: header (attribute, node-class, dim), bias, one row per class."""
    attr = model.attribute.value if model.attribute else "-"
    cls = model.node_class or "-"
    lines = [f"{attr}\t{cls}\t{model.dim}", "bias\t" + " ".join(repr(float(b)) for b in model.bias)]
    lines += [f"w{c}\t" + " ".join(repr(float(w)) for w in model.weights[c]) for c in range(N_VALUES)]
    return "\n".join(lines) + "\n"
