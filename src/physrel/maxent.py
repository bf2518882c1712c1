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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Attribute, FRAME_TYPES, N_VALUES, RelationValue, frame_type_index
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
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class MaxentModel:
    weights: np.ndarray  # (3, dim)
    bias: np.ndarray  # (3,)
    attribute: Optional[Attribute] = None
    node_class: Optional[str] = None

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def featurize_object_pair(p: str, q: str, emb: Embeddings) -> np.ndarray:
    """Concatenation of the two object vectors; zeros for OOV words."""
    return np.concatenate([_lookup(emb.objects, p), _lookup(emb.objects, q)])


def featurize_frame(verb: str, frame_type: str, preposition: Optional[str], emb: Embeddings) -> np.ndarray:
    """Frame-type one-hot + verb vector + preposition vector (or zeros)."""
    one_hot = np.zeros(len(FRAME_TYPES))
    one_hot[frame_type_index(frame_type)] = 1.0
    if preposition is None:
        prep_vec = np.zeros(emb.objects.dim)
    else:
        prep_vec = _lookup(emb.objects, preposition)
    return np.concatenate([one_hot, _lookup(emb.verbs, verb), prep_vec])


def _lookup(store, word: str) -> np.ndarray:
    vec = store.get(word)
    if vec is None:
        logger.warning("no embedding for %r; substituting zeros", word)
        return np.zeros(store.dim)
    return vec


def loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean NLL + 0.5*lambda*||W||^2 (bias unregularized) and its gradients."""
    n = X.shape[0]
    scores = X @ weights.T + bias
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=1, keepdims=True)
    nll = -np.log(probs[np.arange(n), y]).mean()
    loss = nll + 0.5 * l2_lambda * float((weights * weights).sum())
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    grad_w = delta.T @ X / n + l2_lambda * weights
    grad_b = delta.mean(axis=0)
    return float(loss), grad_w, grad_b


def train(
    examples: Sequence[tuple[np.ndarray, RelationValue]],
    cfg: TrainConfig = TrainConfig(),
    attribute: Optional[Attribute] = None,
    node_class: Optional[str] = None,
) -> MaxentModel:
    """Minimize the regularized NLL by full-batch gradient descent."""
    if not examples:
        raise ValueError("empty training set")
    vectors = [np.asarray(x, dtype=float) for x, _ in examples]
    dims = {v.shape for v in vectors}
    if len(dims) != 1 or vectors[0].ndim != 1:
        raise ValueError(f"feature vectors must all be 1-d of equal length, got shapes {sorted(dims)}")
    X = np.stack(vectors)
    y = np.array([int(r) for _, r in examples])
    dim = X.shape[1]
    rng = np.random.default_rng(cfg.rng_seed)
    weights = rng.normal(scale=0.01, size=(N_VALUES, dim))
    bias = np.zeros(N_VALUES)
    for _ in range(cfg.epochs):
        _, grad_w, grad_b = loss_and_grad(weights, bias, X, y, cfg.l2_lambda)
        weights -= cfg.learning_rate * grad_w
        bias -= cfg.learning_rate * grad_b
    return MaxentModel(weights, bias, attribute, node_class)


def predict_proba(model: MaxentModel, x) -> np.ndarray:
    """Softmax class probabilities; a valid belief."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"feature length {x.shape} does not match model dim {model.dim}")
    scores = model.weights @ x + model.bias
    scores -= scores.max()
    exp = np.exp(scores)
    return exp / exp.sum()


def training_loss(model: MaxentModel, examples, l2_lambda: float) -> float:
    X = np.stack([np.asarray(x, dtype=float) for x, _ in examples])
    y = np.array([int(r) for _, r in examples])
    loss, _, _ = loss_and_grad(model.weights, model.bias, X, y, l2_lambda)
    return loss


def save_model(model: MaxentModel, path) -> None:
    """Text format: header (attribute, node-class, dim), bias, one row per class."""
    with open(path, "w", encoding="utf-8") as handle:
        attr = model.attribute.value if model.attribute else "-"
        cls = model.node_class or "-"
        handle.write(f"{attr}\t{cls}\t{model.dim}\n")
        handle.write("bias\t" + " ".join(repr(float(b)) for b in model.bias) + "\n")
        for c in range(N_VALUES):
            handle.write(f"w{c}\t" + " ".join(repr(float(w)) for w in model.weights[c]) + "\n")


def load_model(path) -> MaxentModel:
    with open(path, encoding="utf-8") as handle:
        lines = [ln.rstrip("\n") for ln in handle if ln.strip()]
    attr_tok, cls_tok, dim_tok = lines[0].split("\t")
    dim = int(dim_tok)
    attribute = None if attr_tok == "-" else Attribute.from_token(attr_tok)
    node_class = None if cls_tok == "-" else cls_tok
    tag, payload = lines[1].split("\t")
    if tag != "bias":
        raise ValueError(f"{path}: expected bias line, got {tag!r}")
    bias = np.array([float(v) for v in payload.split()])
    weights = np.empty((N_VALUES, dim))
    for c in range(N_VALUES):
        tag, payload = lines[2 + c].split("\t")
        if tag != f"w{c}":
            raise ValueError(f"{path}: expected w{c} line, got {tag!r}")
        weights[c] = [float(v) for v in payload.split()]
    return MaxentModel(weights, bias, attribute, node_class)
