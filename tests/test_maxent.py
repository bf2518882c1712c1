"""Classifier: features, gradients vs finite differences, training behavior."""
import numpy as np
import pytest

from physrel.core import Attribute, RelationValue
from physrel.lexstats import EmbeddingStore, Embeddings
from physrel.maxent import (
    MaxentModel,
    TrainConfig,
    featurize_frame,
    featurize_object_pair,
    gradients,
    predict_proba,
    save_model,
    train,
)
from conftest import loss_and_grad

GT, EQ, LT = RelationValue.GT, RelationValue.EQ, RelationValue.LT


def matrix(examples) -> tuple[np.ndarray, np.ndarray]:
    """The feature matrix and label codes of (feature vector, relation) examples."""
    return np.stack([np.asarray(x, dtype=float) for x, _ in examples]), np.array([int(r) for _, r in examples])


def training_loss(model: MaxentModel, examples, l2_lambda: float) -> float:
    loss, _, _ = loss_and_grad(model.weights, model.bias, *matrix(examples), l2_lambda)
    return loss


def load_model(text: str) -> MaxentModel:
    """Parse :func:`save_model` text."""
    lines = text.splitlines()
    attr_tok, cls_tok, dim_tok = lines[0].split("\t")
    attribute = None if attr_tok == "-" else Attribute.from_token(attr_tok)
    node_class = None if cls_tok == "-" else cls_tok
    rows = {}
    for line in lines[1:]:
        tag, payload = line.split("\t")
        rows[tag] = np.array([float(v) for v in payload.split()])
    assert list(rows) == ["bias", "w0", "w1", "w2"] and rows["w0"].shape == (int(dim_tok),)
    return MaxentModel(np.stack([rows["w0"], rows["w1"], rows["w2"]]), rows["bias"], attribute, node_class)


def tiny_embeddings(rng=None):
    rng = rng or np.random.default_rng(0)
    objects = {w: rng.normal(size=50) for w in ("person", "basketball", "ant", "zebra")}
    verbs = {w: rng.normal(size=100) for w in ("threw", "entered")}
    return Embeddings(EmbeddingStore(100, verbs), EmbeddingStore(50, objects))


def finite_difference_grad(weights, bias, X, y, l2, eps=1e-5):
    """Oracle: central differences of the scalar loss."""
    grad_w = np.zeros_like(weights)
    for idx in np.ndindex(*weights.shape):
        plus = weights.copy()
        plus[idx] += eps
        minus = weights.copy()
        minus[idx] -= eps
        l_plus, _, _ = loss_and_grad(plus, bias, X, y, l2)
        l_minus, _, _ = loss_and_grad(minus, bias, X, y, l2)
        grad_w[idx] = (l_plus - l_minus) / (2 * eps)
    grad_b = np.zeros_like(bias)
    for i in range(bias.size):
        plus = bias.copy()
        plus[i] += eps
        minus = bias.copy()
        minus[i] -= eps
        l_plus, _, _ = loss_and_grad(weights, plus, X, y, l2)
        l_minus, _, _ = loss_and_grad(weights, minus, X, y, l2)
        grad_b[i] = (l_plus - l_minus) / (2 * eps)
    return grad_w, grad_b


# -- features --


def test_object_pair_same_word_halves_equal():
    emb = tiny_embeddings()
    x = featurize_object_pair("ant", "ant", emb)
    assert x.shape == (100,)
    assert np.array_equal(x[:50], x[50:])


def test_object_pair_oov_gives_zero_vector():
    emb = tiny_embeddings()
    x = featurize_object_pair("wug", "blicket", emb)
    assert x.shape == (100,) and not x.any()


def test_object_pair_concatenation_order():
    emb = tiny_embeddings()
    x = featurize_object_pair("person", "basketball", emb)
    assert np.array_equal(x[:50], emb.objects.get("person"))
    assert np.array_equal(x[50:], emb.objects.get("basketball"))


def test_frame_without_preposition_has_zero_tail():
    emb = tiny_embeddings()
    x = featurize_frame("threw", "dobj", None, emb)
    assert x.shape == (3 + 100 + 50,)
    assert not x[-50:].any()


def test_batch_features_are_the_one_row_features():
    emb = tiny_embeddings()
    pairs = [("person", "basketball"), ("ant", "wug"), ("zebra", "ant")]
    batch = featurize_object_pair([p for p, _ in pairs], [q for _, q in pairs], emb)
    assert np.array_equal(batch, np.stack([featurize_object_pair(p, q, emb) for p, q in pairs]))
    frames = [("threw", "dobj", None), ("entered", "pobj", "ant"), ("blicked", "dobj_pobj", "wug")]
    batch = featurize_frame(*(list(column) for column in zip(*frames)), emb)
    assert np.array_equal(batch, np.stack([featurize_frame(*f, emb) for f in frames]))
    assert featurize_object_pair([], [], emb).shape == (0, 100)


def test_missing_words_warn_once_per_batch_and_store(caplog):
    emb = tiny_embeddings()
    with caplog.at_level("WARNING", logger="physrel.maxent"):
        featurize_object_pair(["wug", "ant", "wug"], ["blicket", "wug", "zebra"], emb)
        featurize_frame(["blicked", "threw"], ["dobj", "pobj"], [None, "dax"], emb)
    assert [r.getMessage() for r in caplog.records] == [
        "no object embedding for 'wug' x3, 'blicket' x1; substituting zeros",
        "no verb embedding for 'blicked' x1; substituting zeros",
        "no object embedding for 'dax' x1; substituting zeros",
    ]


def test_frames_same_verb_different_type_share_middle_block():
    emb = tiny_embeddings()
    a = featurize_frame("threw", "dobj", None, emb)
    b = featurize_frame("threw", "pobj", None, emb)
    assert np.array_equal(a[3:103], b[3:103])
    assert not np.array_equal(a[:3], b[:3])


def test_frame_one_hot_layout():
    emb = tiny_embeddings()
    x = featurize_frame("threw", "dobj", None, emb)
    assert np.array_equal(x[:3], [1.0, 0.0, 0.0])
    assert np.array_equal(x[3:103], emb.verbs.get("threw"))
    with pytest.raises(ValueError):
        featurize_frame("threw", "ccomp", None, emb)


# -- gradients --


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n, d = int(rng.integers(3, 12)), int(rng.integers(2, 9))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 3, size=n)
        weights = rng.normal(scale=0.5, size=(3, d))
        bias = rng.normal(scale=0.5, size=3)
        l2 = float(rng.uniform(0, 0.5))
        _, grad_w, grad_b = loss_and_grad(weights, bias, X, y, l2)
        fd_w, fd_b = finite_difference_grad(weights, bias, X, y, l2)
        denom = max(np.abs(fd_w).max(), np.abs(fd_b).max(), 1e-8)
        assert np.abs(grad_w - fd_w).max() / denom < 1e-4
        assert np.abs(grad_b - fd_b).max() / denom < 1e-4


def test_stacked_gradients_equal_each_models_own_bit_for_bit():
    rng = np.random.default_rng(43)
    for m, n, d in ((1, 7, 4), (3, 11, 5), (5, 180, 153)):
        X = rng.normal(size=(n, d))
        weights = rng.normal(scale=0.5, size=(m, 3, d))
        bias = rng.normal(scale=0.5, size=(m, 3))
        onehot = np.eye(3)[rng.integers(0, 3, size=(m, n))]
        stacked = gradients(weights, bias, X, onehot, 0.01)
        for k in range(m):
            alone = gradients(weights[k].copy(), bias[k].copy(), X, onehot[k], 0.01)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[k], want)


def test_stacked_gradients_match_finite_differences():
    rng = np.random.default_rng(44)
    n, d, m = 9, 4, 3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 3, size=(n, m))
    weights = rng.normal(scale=0.5, size=(m, 3, d))
    bias = rng.normal(scale=0.5, size=(m, 3))
    _, grad_w, grad_b = gradients(weights, bias, X, np.eye(3)[y.T], 0.2)
    for k in range(m):
        fd_w, fd_b = finite_difference_grad(weights[k], bias[k], X, y[:, k], 0.2)
        denom = max(np.abs(fd_w).max(), np.abs(fd_b).max(), 1e-8)
        assert np.abs(grad_w[k] - fd_w).max() / denom < 1e-4
        assert np.abs(grad_b[k] - fd_b).max() / denom < 1e-4


# -- training --


def separable_examples():
    rng = np.random.default_rng(1)
    examples = []
    centers = {GT: np.array([3.0, 0.0]), EQ: np.array([0.0, 3.0]), LT: np.array([-3.0, -3.0])}
    for label, center in centers.items():
        for _ in range(10):
            examples.append((center + 0.1 * rng.normal(size=2), label))
    return examples


def test_separable_set_reaches_full_training_accuracy():
    examples = separable_examples()
    model = train(*matrix(examples), TrainConfig(l2_lambda=0.0, learning_rate=0.5, epochs=400))
    correct = sum(
        1 for x, label in examples if int(np.argmax(predict_proba(model, x))) == int(label)
    )
    assert correct == len(examples)


def test_zero_features_fit_empirical_frequencies():
    # Oracle: with all-zero features the optimum is bias-only, and the
    # softmax bias optimum reproduces the class frequencies exactly.
    examples = [(np.zeros(4), GT)] * 6 + [(np.zeros(4), EQ)] * 3 + [(np.zeros(4), LT)] * 1
    model = train(*matrix(examples), TrainConfig(l2_lambda=0.0, learning_rate=0.5, epochs=4000))
    proba = predict_proba(model, np.zeros(4))
    assert np.allclose(proba, [0.6, 0.3, 0.1], atol=1e-3)


def test_loss_monotone_under_small_learning_rate():
    # Same seed means every run shares the trajectory prefix, so the losses
    # after 1..24 epochs trace a single descent path.
    examples = separable_examples()
    losses = []
    for epochs in range(1, 25):
        model = train(*matrix(examples), TrainConfig(l2_lambda=1e-3, learning_rate=0.05, epochs=epochs))
        losses.append(training_loss(model, examples, 1e-3))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_regularized_optimum_independent_of_seed():
    examples = separable_examples()
    base = dict(l2_lambda=0.1, learning_rate=0.5, epochs=4000)
    m1 = train(*matrix(examples), TrainConfig(rng_seed=1, **base))
    m2 = train(*matrix(examples), TrainConfig(rng_seed=2, **base))
    l1 = training_loss(m1, examples, 0.1)
    l2 = training_loss(m2, examples, 0.1)
    assert abs(l1 - l2) < 1e-6


def test_train_is_deterministic_given_seed():
    examples = separable_examples()
    m1 = train(*matrix(examples), TrainConfig(rng_seed=5))
    m2 = train(*matrix(examples), TrainConfig(rng_seed=5))
    assert np.array_equal(m1.weights, m2.weights) and np.array_equal(m1.bias, m2.bias)


def test_train_input_validation():
    with pytest.raises(ValueError, match="empty"):
        train(np.zeros((0, 3)), [])
    with pytest.raises(ValueError, match="do not fit"):
        train(np.zeros((2, 3)), [GT])
    with pytest.raises(ValueError, match="do not fit"):
        train(np.zeros(3), [GT])
    with pytest.raises(ValueError, match="do not fit"):
        train(np.zeros((2, 3)), np.zeros((2, 1, 1), int))
    # -1 is the dataset's "unlabeled" code, never a class.
    with pytest.raises(ValueError, match=r"label codes must lie in 0\.\.2, got \[-1\]"):
        train(np.eye(3), [-1, -1, -1])
    with pytest.raises(ValueError, match=r"got \[3\]"):
        train(np.eye(3), [GT, 3, LT])
    with pytest.raises(ValueError, match=r"got \[-1\]"):
        train(np.eye(3), [[GT, EQ], [LT, -1], [EQ, GT]])


def test_train_rejects_weights_that_are_not_finite():
    # A feature this large makes the descent overflow to weights that are
    # not finite; stacked, every model that diverged is named.
    X, labels = np.array([[1e308, 0.0], [0.0, 1.0], [1.0, 0.0]]), [[GT, GT], [LT, LT], [EQ, GT]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^training diverged for attribute\(s\) size of node class frame: "):
            train(X, [GT, LT, EQ], attribute=Attribute.SIZE, node_class="frame")
        with pytest.raises(ValueError, match=r"attribute\(s\) size, speed of node class object-pair: "):
            train(X, labels, attribute=[Attribute.SIZE, Attribute.SPEED], node_class="object-pair")
    # The same labels train finite models from features of ordinary size.
    train(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), labels)


def test_train_on_label_columns_equals_one_train_per_column():
    examples = separable_examples()
    X, y = matrix(examples)
    rng = np.random.default_rng(6)
    Y = np.column_stack([y, rng.integers(0, 3, size=len(y)), (y + 1) % 3])
    cfg = TrainConfig(epochs=80, learning_rate=0.3)
    attributes = [Attribute.SIZE, Attribute.WEIGHT, Attribute.SPEED]
    models = train(X, Y, cfg, attributes, "frame")
    assert [(m.attribute, m.node_class) for m in models] == [(a, "frame") for a in attributes]
    for column, model in enumerate(models):
        alone = train(X, Y[:, column], cfg, attributes[column], "frame")
        assert np.array_equal(model.weights, alone.weights) and np.array_equal(model.bias, alone.bias)
    assert [m.attribute for m in train(X, Y[:, :2], cfg)] == [None, None]


# -- prediction --


def test_zero_model_predicts_uniform():
    model = MaxentModel(np.zeros((3, 5)), np.zeros(3))
    assert np.allclose(predict_proba(model, np.ones(5)), [1 / 3, 1 / 3, 1 / 3])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    model = MaxentModel(rng.normal(size=(3, 4)), rng.normal(size=3))
    x = rng.normal(size=4)
    shifted = MaxentModel(model.weights.copy(), model.bias + 7.3)
    assert np.allclose(predict_proba(model, x), predict_proba(shifted, x), atol=1e-12)


def test_softmax_of_log2_scores():
    model = MaxentModel(np.array([[np.log(2.0)], [0.0], [0.0]]), np.zeros(3))
    assert np.allclose(predict_proba(model, np.array([1.0])), [0.5, 0.25, 0.25])


@pytest.mark.parametrize(
    "field, value",
    [
        ("l2_lambda", -0.1),
        ("l2_lambda", float("nan")),
        ("l2_lambda", float("inf")),
        ("l2_lambda", True),
        ("l2_lambda", False),
        ("learning_rate", 0.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("learning_rate", True),
        ("epochs", 0),
        ("epochs", 2.5),
        ("epochs", True),
        ("epochs", "3"),
        ("rng_seed", -1),
        ("rng_seed", 1.5),
        ("rng_seed", True),
        ("rng_seed", None),
    ],
)
def test_train_config_rejects_values_it_cannot_train_with(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_train_config_edge_values_train():
    examples = matrix(separable_examples())
    numpy_ints = train(*examples, TrainConfig(l2_lambda=0.0, epochs=np.int64(1), rng_seed=np.int64(0)))
    ints = train(*examples, TrainConfig(l2_lambda=0.0, epochs=1))
    assert np.array_equal(numpy_ints.weights, ints.weights)


def test_predict_proba_is_valid_belief():
    rng = np.random.default_rng(4)
    model = MaxentModel(rng.normal(size=(3, 6)), rng.normal(size=3))
    for _ in range(50):
        p = predict_proba(model, rng.normal(scale=5.0, size=6))
        assert abs(p.sum() - 1.0) < 1e-9 and (p > 0).all()
    with pytest.raises(ValueError):
        predict_proba(model, np.zeros(7))


def test_model_save_load_round_trip():
    examples = separable_examples()
    model = train(*matrix(examples), TrainConfig(), attribute=Attribute.SIZE, node_class="frame")
    back = load_model(save_model(model))
    assert back.attribute is Attribute.SIZE and back.node_class == "frame"
    x = np.array([0.3, -0.8])
    assert np.array_equal(predict_proba(model, x), predict_proba(back, x))
