"""Embedding features and the log-linear classifier behind unary potentials.

Object pairs are featurized as the concatenation of two word vectors; frames
as frame-type one-hot + verb vector + preposition vector. A 3-class maxent
model turns those features into beliefs over (GT, EQ, LT), which the graph
builder installs as unary potentials on every node.
"""
import numpy as np

from physrel import TrainConfig, featurize_frame, featurize_object_pair, predict_proba, train
from physrel.lexstats import EmbeddingStore, Embeddings
from physrel.maxent import gradients

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# A toy vocabulary. Object vectors put "size" in their first coordinate, so
# the relation between two objects is linearly decodable from the pair
# feature; the rest is noise.
sizes = {"ant": -1.0, "cup": -0.3, "dog": 0.2, "car": 0.8, "house": 1.5}
objects = {}
for word, size in sizes.items():
    vec = 0.1 * rng.normal(size=50)
    vec[0] = size
    objects[word] = vec
objects["into"] = rng.normal(size=50)
verbs = {w: rng.normal(size=100) for w in ("carried", "entered")}
emb = Embeddings(EmbeddingStore(100, verbs), EmbeddingStore(50, objects))

x = featurize_object_pair("ant", "house", emb)
print("pair feature length:", x.shape[0], "(two 50-d object vectors)")

f = featurize_frame("entered", "pobj", "into", emb)
print("frame feature length:", f.shape[0], "(one-hot + 100-d verb + 50-d preposition)")
print("frame with no preposition has a zero tail:",
      not featurize_frame("carried", "dobj", None, emb)[-50:].any())
print("out-of-vocabulary words contribute zeros:",
      not featurize_object_pair("wug", "blicket", emb).any())

# ---------------------------------------------------------------------------
# Train on all labeled pairs among the toy objects (canonical order, so the
# label compares the alphabetically first object against the second).
words = sorted(sizes)
examples = []
for i, w1 in enumerate(words):
    for w2 in words[i + 1:]:
        diff = sizes[w1] - sizes[w2]
        label = 0 if diff > 0.05 else (2 if diff < -0.05 else 1)
        examples.append((featurize_object_pair(w1, w2, emb), label))

X = np.stack([x for x, _ in examples])
y = np.array([label for _, label in examples])
model = train(X, y, TrainConfig(learning_rate=0.5, epochs=1000), node_class="object-pair")
hits = int((np.argmax(predict_proba(model, X), axis=1) == y).sum())
print(f"\ntraining accuracy: {hits}/{len(examples)}")

print("belief for (ant, house):", predict_proba(model, featurize_object_pair("ant", "house", emb)))
print("belief for (car, cup):  ", predict_proba(model, featurize_object_pair("car", "cup", emb)))

# ---------------------------------------------------------------------------
# The analytic gradient agrees with central finite differences; the training
# loop is plain full-batch gradient descent on a convex objective.
weights = rng.normal(scale=0.1, size=(3, X.shape[1]))
bias = rng.normal(scale=0.1, size=3)
onehot = np.eye(3)[y]
_, grad_w, grad_b = gradients(weights, bias, X, onehot, l2_lambda=0.01)


def loss(w):
    """Mean NLL + 0.005 * ||w||^2, the objective whose gradient ``gradients`` gives."""
    probs, _, _ = gradients(w, bias, X, onehot, 0.01)
    return -np.log(probs[np.arange(len(y)), y]).mean() + 0.005 * (w * w).sum()


eps = 1e-5
idx = (1, 3)
plus, minus = weights.copy(), weights.copy()
plus[idx] += eps
minus[idx] -= eps
fd = (loss(plus) - loss(minus)) / (2 * eps)
print(f"\nanalytic dL/dw{idx} = {grad_w[idx]:.8f}, finite difference = {fd:.8f}")
