"""Factor graph and BP: message math, tree exactness, robustness."""
import contextlib
import os
import re
import signal
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import factors, reference_dump_graph, reference_run_bp
from physrel import factorgraph
from physrel.builder import SOFT_ONE, BuildConfig, flipped_table
from physrel.cli import write_outputs
from physrel.factorgraph import (
    BPConfig,
    BPResult,
    LINE_BREAKS,
    FactorGraph,
    dump_graph,
    exact_marginals,
    graph_text,
    load_graph,
    run_bp,
)
from physrel.harness import TaskSpec, build_graph, prepare
from physrel.synthetic import generate_world

UNIFORM = np.full(3, 1 / 3)


# -- reference message updates: one message at a time, from the factor view --


def neighbors(graph, v):
    """Ids of the factors whose scope holds variable v, in id order."""
    return [f.id for f in factors(graph) for u in f.scope if u == v]


def message_var_to_factor(graph, v, f, inbox):
    """Normalized product of factor-to-variable messages from N(v) \\ {f}.

    ``inbox`` maps (factor_id, var_id) to the current factor-to-variable
    message; absent messages count as uniform. The empty product is uniform.
    """
    adjacent = neighbors(graph, v)
    if f not in adjacent:
        raise ValueError(f"factor {f} is not a neighbor of variable {v}")
    log_p = np.zeros(3)
    for other in adjacent:
        if other == f:
            continue
        msg = inbox.get((other, v))
        if msg is not None:
            log_p += np.log(np.asarray(msg, dtype=float))
    log_p -= logsumexp(log_p)
    return np.exp(log_p)


def message_factor_to_var(graph, f, v, inbox):
    """Marginalized belief about v from factor f and the other scope message.

    ``inbox`` maps (var_id, factor_id) to the current variable-to-factor
    message; absent messages count as uniform. A unary factor returns its
    normalized potential.
    """
    factor = factors(graph)[f]
    if v not in factor.scope:
        raise ValueError(f"variable {v} is not in the scope of factor {f}")
    if factor.arity == 1:
        return factor.table / factor.table.sum()
    pos = factor.scope.index(v)
    other = factor.scope[1 - pos]
    msg = inbox.get((other, f))
    msg = UNIFORM if msg is None else np.asarray(msg, dtype=float)
    out = factor.table @ msg if pos == 0 else msg @ factor.table
    return out / out.sum()


def brute_force_factor_message(table, sender_msg, to_position):
    """Oracle: enumerate all 9 joint states of a binary factor."""
    out = np.zeros(3)
    for a in range(3):
        for b in range(3):
            weight = table[a, b]
            if to_position == 1:
                out[b] += weight * sender_msg[a]
            else:
                out[a] += weight * sender_msg[b]
    return out / out.sum()


def random_tree(rng, n):
    g = FactorGraph()
    for i in range(n):
        g.add_variable(f"x{i}")
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        g.add_factor([parent, i], rng.uniform(0.05, 2.0, (3, 3)), "pair")
    for i in range(n):
        if rng.random() < 0.8:
            g.add_factor([i], rng.uniform(0.05, 2.0, 3), "unary")
    return g


def random_loopy(rng, n, extra_edges=3):
    g = random_tree(rng, n)
    for _ in range(extra_edges):
        a, b = rng.choice(n, size=2, replace=False)
        g.add_factor([int(a), int(b)], rng.uniform(0.05, 2.0, (3, 3)), "loop")
    return g


# -- construction --


def test_add_factor_validations():
    g = FactorGraph()
    v = g.add_variable("a")
    with pytest.raises(ValueError):
        g.add_factor([v], [0.5, 0.0, 0.5])  # zero entry
    with pytest.raises(ValueError, match=r"^factor 0 of the batch: table not finite and strictly positive$"):
        g.add_factor([v], [0.5, np.inf, 0.5])  # infinite entry
    w = g.add_variable("b")
    with pytest.raises(ValueError, match=r"^factor 1 of the batch: table not finite and strictly positive$"):
        g.add_factors(["sim"], [0, 0], [[v, w], [v, w]], [0, 1], binary_tables=[SOFT_ONE, SOFT_ONE * np.inf])
    with pytest.raises(ValueError):
        g.add_factor([v], np.ones((3, 3)))  # arity/table mismatch
    with pytest.raises(ValueError):
        g.add_factor([v, 7], np.ones((3, 3)))  # unknown variable
    with pytest.raises(ValueError):
        g.add_factor([], np.ones(3))
    with pytest.raises(ValueError):
        g.add_variable("a")  # duplicate node


def test_a_binary_factor_needs_two_distinct_variables():
    g = FactorGraph()
    a, b = g.add_variable("a"), g.add_variable("b")
    with pytest.raises(ValueError, match=r"^factor 0 of the batch: both ends are one variable$"):
        g.add_factor([a, a], SOFT_ONE)
    with pytest.raises(ValueError, match=r"^factor 1 of the batch: both ends are one variable$"):
        g.add_factors(["sim"], [0, 0], [[a, b], [b, b]], [0, 0], binary_tables=[SOFT_ONE])
    assert len(g.columns()[0]) == 0  # a rejected batch adds nothing


def test_bp_and_exact_never_see_a_factor_on_one_variable_twice():
    # A factor on [v, v] would feed v's own belief back to it as evidence.
    g = FactorGraph()
    v = g.add_variable("a")
    g.add_factor([v], [0.7, 0.1, 0.2])
    with contextlib.suppress(ValueError):
        g.add_factor([v, v], SOFT_ONE)
    assert np.allclose(exact_marginals(g)[v], [0.7, 0.1, 0.2])
    assert np.allclose(run_bp(g).marginals[v], [0.7, 0.1, 0.2])


def test_bp_config_validation():
    with pytest.raises(ValueError):
        BPConfig(max_iterations=0)
    with pytest.raises(ValueError):
        BPConfig(convergence_eps=0.0)
    with pytest.raises(ValueError):
        BPConfig(damping=1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
def test_bp_config_rejects_a_convergence_eps_that_is_not_finite(eps):
    # nan compares false with every residual, so BP would run to the cap.
    with pytest.raises(ValueError, match="convergence_eps"):
        BPConfig(convergence_eps=eps)


@pytest.mark.parametrize("field, value", [("convergence_eps", True), ("damping", False), ("damping", True)])
def test_bp_config_rejects_bools(field, value):
    # convergence_eps=True would run BP with eps 1.
    with pytest.raises(ValueError, match=f"^{field} must"):
        BPConfig(**{field: value})


@pytest.mark.parametrize("cap", [2.5, 3.0, True, "3", None])
def test_bp_config_rejects_a_max_iterations_that_is_not_an_int(cap):
    with pytest.raises(ValueError, match="max_iterations"):
        BPConfig(max_iterations=cap)
    assert BPConfig(max_iterations=np.int64(3)).max_iterations == 3


# -- single messages --


def test_var_message_empty_product_is_uniform():
    g = FactorGraph()
    v = g.add_variable("a")
    f = g.add_factor([v], [1.0, 1.0, 1.0])
    assert np.allclose(message_var_to_factor(g, v, f, {}), UNIFORM)


def test_var_message_single_term():
    g = FactorGraph()
    v = g.add_variable("a")
    f1 = g.add_factor([v], [1.0, 1.0, 1.0])
    f2 = g.add_factor([v], [1.0, 1.0, 1.0])
    inbox = {(f2, v): np.array([0.7, 0.1, 0.2])}
    assert np.allclose(message_var_to_factor(g, v, f1, inbox), [0.7, 0.1, 0.2])


def test_var_message_product_of_two():
    g = FactorGraph()
    v = g.add_variable("a")
    fs = [g.add_factor([v], [1.0, 1.0, 1.0]) for _ in range(3)]
    inbox = {
        (fs[1], v): np.array([0.5, 0.3, 0.2]),
        (fs[2], v): np.array([0.2, 0.3, 0.5]),
    }
    # Oracle: elementwise multiply then normalize.
    expected = np.array([0.5, 0.3, 0.2]) * np.array([0.2, 0.3, 0.5])
    expected /= expected.sum()
    got = message_var_to_factor(g, v, fs[0], inbox)
    assert np.allclose(got, expected)
    assert np.allclose(got, [10 / 29, 9 / 29, 10 / 29])


def test_factor_message_unary_is_normalized_potential():
    g = FactorGraph()
    v = g.add_variable("a")
    f = g.add_factor([v], [0.7, 0.1, 0.2])
    assert np.allclose(message_factor_to_var(g, f, v, {}), [0.7, 0.1, 0.2])


def test_factor_message_soft_one_against_enumeration():
    g = FactorGraph()
    a = g.add_variable("a")
    b = g.add_variable("b")
    f = g.add_factor([a, b], SOFT_ONE)
    sender = np.array([0.7, 0.1, 0.2])
    got = message_factor_to_var(g, f, b, {(a, f): sender})
    oracle = brute_force_factor_message(SOFT_ONE, sender, to_position=1)
    assert np.allclose(got, oracle)
    assert np.allclose(got, [0.545, 0.160, 0.295], atol=1e-12)


def test_factor_message_uniform_sender_gives_column_sums():
    g = FactorGraph()
    a = g.add_variable("a")
    b = g.add_variable("b")
    f = g.add_factor([a, b], SOFT_ONE)
    got = message_factor_to_var(g, f, b, {})  # missing message counts as uniform
    oracle = brute_force_factor_message(SOFT_ONE, UNIFORM, to_position=1)
    assert np.allclose(got, oracle)
    assert np.allclose(got, [0.35, 0.30, 0.35], atol=1e-12)


# -- run_bp --


def test_single_variable_seed_factor():
    g = FactorGraph()
    v = g.add_variable("a")
    g.add_factor([v], [0.7, 0.1, 0.2], "seed")
    result = run_bp(g, BPConfig())
    assert np.allclose(result.marginals[v], [0.7, 0.1, 0.2])
    assert result.converged and result.iterations <= 2


def test_chain_matches_exact_and_frozen_value():
    g = FactorGraph()
    a = g.add_variable("a")
    b = g.add_variable("b")
    g.add_factor([a], [0.7, 0.1, 0.2], "seed")
    g.add_factor([b], [1.0, 1.0, 1.0], "seed")
    g.add_factor([a, b], SOFT_ONE, "sim")
    result = run_bp(g, BPConfig(damping=0.0, convergence_eps=1e-12))
    exact = exact_marginals(g)
    assert np.allclose(result.marginals, exact, atol=1e-9)
    assert np.allclose(result.marginals[b], [0.545, 0.160, 0.295], atol=1e-9)


def test_trees_match_exact_marginals():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_tree(rng, int(rng.integers(2, 11)))
        result = run_bp(g, BPConfig(damping=0.0, convergence_eps=1e-12, max_iterations=200))
        assert np.abs(result.marginals - exact_marginals(g)).max() < 1e-6


def test_trees_match_exact_with_default_damping():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_tree(rng, int(rng.integers(2, 9)))
        result = run_bp(g, BPConfig(damping=0.5, convergence_eps=1e-10, max_iterations=200))
        assert np.abs(result.marginals - exact_marginals(g)).max() < 1e-6


def test_factorless_variable_marginal_uniform():
    g = FactorGraph()
    g.add_variable("lonely")
    v = g.add_variable("seeded")
    g.add_factor([v], [0.6, 0.3, 0.1])
    result = run_bp(g, BPConfig())
    assert np.allclose(result.marginals[0], UNIFORM)
    assert np.allclose(exact_marginals(g)[0], UNIFORM)


def test_marginals_and_messages_normalized_on_loopy_graph():
    rng = np.random.default_rng(11)
    g = random_loopy(rng, 8, extra_edges=5)
    result = run_bp(g, BPConfig())
    sums = result.marginals.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9
    assert (result.marginals > 0).all() and (result.marginals < 1).all()


def test_damping_zero_matches_reference_implementation():
    """Dual route: naive per-edge flooding BP built from the reference message
    ops must agree with the vectorized engine at damping 0, on a mixed bank
    (shared SOFT_ONE, its flip, per-factor random tables), scopes in both id
    orders and a variable with no factors."""
    rng = np.random.default_rng(13)
    g = random_loopy(rng, 6, extra_edges=2)
    lonely = g.add_variable("lonely")
    y = [g.add_variable(f"y{i}") for i in range(3)]
    flip = flipped_table(SOFT_ONE)
    for scope, table in (
        ([y[0], 0], SOFT_ONE),
        ([3, y[1]], SOFT_ONE),
        ([y[1], y[0]], flip),
        ([y[2], 2], flip),
        ([5, 1], SOFT_ONE),
        ([y[2], y[0]], SOFT_ONE),
        ([4, y[2]], flip),
    ):
        g.add_factor(scope, table, "shared")
    g.add_factor([y[2]], [0.2, 0.3, 0.5], "unary")
    assert len(g.bank) == 5 + 2 + 2  # tree and loop tables, then the two shared ones
    assert any(f.scope[0] > f.scope[1] for f in factors(g) if f.arity == 2)
    iterations = 37

    # Unary messages are constant; the engine sends them from the start.
    f2v = {}
    v2f = {}
    for f in factors(g):
        for v in f.scope:
            f2v[(f.id, v)] = message_factor_to_var(g, f.id, v, {}) if f.arity == 1 else UNIFORM.copy()
            v2f[(v, f.id)] = UNIFORM.copy()
    for _ in range(iterations):
        new_v2f = {
            (v, fid): message_var_to_factor(g, v, fid, f2v)
            for (v, fid) in v2f
        }
        new_f2v = {
            (fid, v): message_factor_to_var(g, fid, v, new_v2f)
            for (fid, v) in f2v
        }
        v2f, f2v = new_v2f, new_f2v
    reference = np.zeros((g.n_variables, 3))
    for v in range(g.n_variables):
        log_p = np.zeros(3)
        for fid in neighbors(g, v):
            log_p += np.log(f2v[(fid, v)])
        log_p -= log_p.max()
        p = np.exp(log_p)
        reference[v] = p / p.sum()

    result = run_bp(g, BPConfig(damping=0.0, convergence_eps=1e-300, max_iterations=iterations))
    assert not result.converged and result.iterations == iterations
    assert np.abs(result.marginals - reference).max() < 1e-12
    assert np.allclose(result.marginals[lonely], UNIFORM)


def test_shared_tables_are_stored_once():
    g = FactorGraph()
    for i in range(1001):
        g.add_variable(i)
    flip = flipped_table(SOFT_ONE)
    for i in range(1000):
        g.add_factor([i, i + 1], SOFT_ONE if i % 3 else flip, "shared")
    assert len(factors(g)) == 1000
    assert len(g.bank) == 2
    assert np.array_equal(factors(g)[0].table, flip) and np.array_equal(factors(g)[1].table, SOFT_ONE)


def test_residuals_trace_every_iteration():
    rng = np.random.default_rng(31)
    g = random_loopy(rng, 8, extra_edges=5)
    stopped = set()
    for config in (BPConfig(), BPConfig(max_iterations=3), BPConfig(damping=0.0, convergence_eps=1e-12)):
        result = run_bp(g, config)
        assert len(result.residuals) == result.iterations
        assert (result.residuals[-1] < config.convergence_eps) == result.converged
        stopped.add(result.converged)
    assert stopped == {True, False}
    unary_only = FactorGraph()
    unary_only.add_factor([unary_only.add_variable("a")], [0.2, 0.3, 0.5])
    unary_only.add_variable("b")  # a variable without any factor is uniform
    for config in (BPConfig(), BPConfig(damping=0.5)):
        result = run_bp(unary_only, config)
        assert result.converged and result.residuals == [0.0] and result.iterations == 1
        assert np.allclose(result.marginals, [[0.2, 0.3, 0.5], [1 / 3] * 3], rtol=0, atol=1e-15)


def test_run_bp_deterministic():
    rng = np.random.default_rng(17)
    g = random_loopy(rng, 9, extra_edges=4)
    r1 = run_bp(g, BPConfig())
    r2 = run_bp(g, BPConfig())
    assert np.array_equal(r1.marginals, r2.marginals)
    assert r1.iterations == r2.iterations and r1.converged == r2.converged


def test_non_convergence_returns_flagged_marginals():
    rng = np.random.default_rng(19)
    g = random_loopy(rng, 6, extra_edges=4)
    result = run_bp(g, BPConfig(max_iterations=1, convergence_eps=1e-300))
    assert not result.converged
    assert np.abs(result.marginals.sum(axis=1) - 1.0).max() < 1e-9


def test_log_domain_scale_no_nan_inf():
    # 10k variables; one hub variable with hundreds of tiny unary factors so
    # a linear-domain product would underflow to zero.
    rng = np.random.default_rng(23)
    g = FactorGraph()
    for i in range(10_000):
        g.add_variable(i)
    for _ in range(400):
        g.add_factor([0], [1e-8, 2e-8, 1.5e-8])
    for i in range(1, 10_000):
        g.add_factor([i - 1, i], rng.uniform(0.05, 2.0, (3, 3)))
    result = run_bp(g, BPConfig(max_iterations=3, convergence_eps=1e-12))
    assert np.isfinite(result.marginals).all()
    assert np.abs(result.marginals.sum(axis=1) - 1.0).max() < 1e-9


def test_tables_near_underflow_match_exact():
    # Variable-to-factor messages divide the exponentiated totals by the
    # edge's own message; tables down to 1e-300 must not turn that into 0/0.
    rng = np.random.default_rng(37)
    g = FactorGraph()
    chain = [g.add_variable(i) for i in range(6)]
    for a, b in zip(chain, chain[1:]):
        g.add_factor([a, b], rng.permutation(np.logspace(0, -300, 9)).reshape(3, 3))
    g.add_factor([chain[2]], [1e-300, 1.0, 1e-200])
    result = run_bp(g, BPConfig(convergence_eps=1e-12))
    assert np.isfinite(result.marginals).all()
    assert np.abs(result.marginals - exact_marginals(g)).max() < 1e-9


def test_bp_names_the_first_variable_whose_belief_is_not_finite():
    # Entries from 1e300 down to 1e-300: a normalized message underflows to
    # exactly 0, its log is -inf and the totals turn into nan.
    rng = np.random.default_rng(37)
    g = FactorGraph()
    chain = [g.add_variable(f"v{i}") for i in range(6)]
    for a, b in zip(chain, chain[1:]):
        g.add_factor([a, b], rng.permutation(np.logspace(300, -300, 9)).reshape(3, 3))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^belief of variable 0 \('v0'\) is not finite"):
        run_bp(g, BPConfig())


def test_a_graph_without_binary_factors_gets_the_finiteness_check():
    # The row's sum overflows, so its normalized log is -inf everywhere and
    # the belief is nan, as it would be with a binary factor on the variable.
    g = FactorGraph()
    g.add_factor([g.add_variable("a")], [1e308, 1e308, 1.0])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^belief of variable 0 \('a'\) is not finite"):
        run_bp(g, BPConfig())


def test_bp_memory_peak_is_about_its_two_message_arrays():
    # Only the (3, 2B) factor-to-variable and variable-to-factor messages are
    # full size; totals are per variable and the rest is per block.
    n, b = 20_000, 100_000
    rng = np.random.default_rng(41)
    g = FactorGraph()
    for i in range(n):
        g.add_variable(i)
    first = rng.integers(0, n, b)
    scopes = np.column_stack([first, (first + rng.integers(1, n, b)) % n])
    g.add_factors(["sim"], np.zeros(b), scopes, rng.integers(0, 2, b), binary_tables=[SOFT_ONE, flipped_table(SOFT_ONE)])
    g.add_factors(["seed"], np.zeros(n), np.column_stack([np.arange(n), np.full(n, -1)]), np.arange(n),
                  unary_tables=rng.uniform(0.1, 1.0, (n, 3)))
    g.columns()  # join the graph's chunks outside the measurement
    tracemalloc.start()
    try:
        run_bp(g, BPConfig(max_iterations=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * (3 * 2 * b * 8)


# -- frozen factors: run_bp against the loop that updates every factor --

# Near one-hot, but every entry counts: a table ratio of 1e3 gives a clamp
# bound of 2**-56 / 1e6, about 1.4e-23.
STRONG = np.full((3, 3), 1e-3) + np.eye(3) * (1 - 1e-3)
ONE_HOT = [[1.0, 1e-40, 1e-40], [1e-40, 1e-40, 1.0]]  # GT, LT


def hub_graph(leaves: int, paths: int = 0, length: int = 3) -> FactorGraph:
    """A hub with ``leaves`` SOFT_ONE edges to leaves seeded one-hot at GT
    (in both scope orders), and ``paths`` STRONG chains of ``length``
    unseeded variables from a leaf seeded one-hot at LT to the hub."""
    g = FactorGraph()
    nodes = ["hub", *(f"leaf{i}" for i in range(leaves))]
    for node in nodes + [f"path{p}.{k}" for p in range(paths) for k in range(length + 1)]:
        g.add_variable(node)
    leaf, hub = np.arange(1, leaves + 1), np.zeros(leaves, int)
    scopes = np.where((leaf % 2 == 1)[:, None], np.column_stack([hub, leaf]), np.column_stack([leaf, hub]))
    g.add_factors(["sim"], hub, scopes, hub, binary_tables=[SOFT_ONE])
    g.add_factors(["seed"], hub, np.column_stack([leaf, hub - 1]), hub, unary_tables=ONE_HOT)
    chains = len(nodes) + np.arange(paths)[:, None] * (length + 1) + np.arange(length + 1)
    links = np.column_stack([chains[:, :-1].ravel(), chains[:, 1:].ravel()])
    links = np.concatenate([links, np.column_stack([chains[:, -1], np.zeros(paths, int)])])
    g.add_factors(["late"], np.zeros(len(links)), links, np.zeros(len(links)), binary_tables=[STRONG])
    g.add_factors(["seed"], np.zeros(paths), np.column_stack([chains[:, 0], np.full(paths, -1)]), np.ones(paths),
                  unary_tables=ONE_HOT)
    return g


def add_loopy(g: FactorGraph, rng, n: int, edges: int, tables) -> FactorGraph:
    """``n`` more variables with random unaries and ``edges`` factors among
    them, each table drawn from ``tables``."""
    first = g.n_variables
    for i in range(n):
        g.add_variable(f"loopy{i}")
    scopes = first + np.array([rng.choice(n, 2, replace=False) for _ in range(edges)])
    g.add_factors(["loop"], np.zeros(edges), scopes, rng.integers(0, len(tables), edges), binary_tables=tables)
    g.add_factors(["seed"], np.zeros(n), np.column_stack([first + np.arange(n), np.full(n, -1)]), np.arange(n),
                  unary_tables=rng.uniform(0.05, 2.0, (n, 3)))
    return g


@pytest.fixture
def frozen(monkeypatch):
    """run_bp's frozen set after each change: per block, which factors are live."""
    masks = []
    refresh = factorgraph._Frozen._refresh

    def spy(self):
        refresh(self)
        masks.append([mask.copy() for mask in self.masks])

    monkeypatch.setattr(factorgraph._Frozen, "_refresh", spy)
    return masks


def sizes(frozen) -> list[int]:
    return [sum(int(np.count_nonzero(~mask)) for mask in live) for live in frozen]


def assert_matches_reference(g: FactorGraph, config: BPConfig) -> tuple[BPResult, BPResult]:
    """run_bp's iterations and residuals equal the reference's, and so does
    every belief, but for clamped ones: entries far below their argmax's
    exact 1 may move by rounding."""
    reference, result = reference_run_bp(g, config), run_bp(g, config)
    assert result.iterations == reference.iterations
    assert result.residuals == reference.residuals
    moved = ~(result.marginals == reference.marginals).all(axis=1)
    assert (reference.marginals[moved].max(axis=1) == 1.0).all() and (result.marginals[moved].max(axis=1) == 1.0).all()
    assert np.abs(result.marginals - reference.marginals).max() <= 1e-30
    return reference, result


@pytest.mark.parametrize("config", [BPConfig(), BPConfig(convergence_eps=1e-300, max_iterations=30)])
def test_a_saturating_hub_freezes_and_matches_the_reference(frozen, config):
    g = hub_graph(150)
    add_loopy(g, np.random.default_rng(43), 30, 60, [SOFT_ONE, flipped_table(SOFT_ONE)])
    assert_matches_reference(g, config)
    assert sizes(frozen) == [150]


def test_a_hub_frozen_whole_stops_with_the_reference(frozen):
    # Every factor freezes and the last iteration updates none. They froze
    # once their messages were constants in two iterations, so nothing the
    # loop would have updated moves either: its last residual is 0 as well.
    reference, _ = assert_matches_reference(hub_graph(150), BPConfig(convergence_eps=1e-300, max_iterations=30))
    assert sizes(frozen) == [150] and reference.residuals[-1] == 0.0


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("config", [BPConfig(), BPConfig(convergence_eps=1e-300, max_iterations=40)])
def test_a_clamped_hub_that_flips_releases_its_factors(frozen, length, config):
    # The hub clamps at GT from its 150 seeded leaves, which freezes their
    # factors; evidence for LT arrives over 200 chains a few hops later.
    g = hub_graph(150, paths=200, length=length)
    trace = []
    reference = reference_run_bp(g, config, trace)
    assert_matches_reference(g, config)
    delta = 2.0**-56 / 1e3 / 1e3  # STRONG has the largest ratio of the bank
    hub_at_gt = [(scaled[:, 0] >= delta).tolist() == [True, False, False] for scaled in trace]
    first = hub_at_gt.index(True)
    assert hub_at_gt[first + 1] and not all(hub_at_gt[first:])  # steady at GT, then no longer
    assert reference.marginals[0].argmax() == 2
    assert sizes(frozen)[:3] == [150, 0, 150]  # frozen, released, frozen again at LT


@pytest.mark.parametrize("length", [2, 3])
def test_a_hub_released_into_a_mixed_belief_sums_its_totals_as_the_loop_does(frozen, length):
    # Late evidence almost cancels the leaves': at release the hub's belief
    # is far from clamped, so its totals, summed with the frozen logs apart,
    # must be summed again in the loop's order, also when BP stops there.
    g = hub_graph(150, paths=33, length=length)
    reference, _ = assert_matches_reference(g, BPConfig())
    assert reference.marginals[0].max() < 1 - 1e-3 and sizes(frozen)[:2] == [150, 0]
    for cap in range(1, reference.iterations):
        assert_matches_reference(g, BPConfig(max_iterations=cap))


def test_residuals_below_the_bound_may_differ_in_the_last_iteration(frozen):
    # A variable with frozen factors sums its logs in another order, which
    # moves its messages' entries below 2**-55: when nothing else moves, the
    # residuals see that. At any eps from 2**-55 up they are the last.
    g = hub_graph(150)
    g.add_factor([0, g.add_variable("w")], SOFT_ONE, "sim")
    g.add_factor([g.n_variables - 1], [0.2, 0.3, 0.5], "seed")
    reference, result = reference_run_bp(g, BPConfig(1000, 1e-300)), run_bp(g, BPConfig(1000, 1e-300))
    below = [r < 2.0**-55 for r in reference.residuals].index(True)
    assert result.residuals[:below] == reference.residuals[:below] and result.residuals[below] < 2.0**-55
    assert result.residuals != reference.residuals and sizes(frozen) == [150]
    for eps in (2.0**-55, 1e-12):
        reference, result = reference_run_bp(g, BPConfig(1000, eps)), run_bp(g, BPConfig(1000, eps))
        assert result.iterations == reference.iterations and result.residuals[:-1] == reference.residuals[:-1]
        assert max(result.residuals[-1], reference.residuals[-1]) < 2.0**-55 or result.residuals == reference.residuals


@pytest.mark.parametrize("small", [1e-12, 1e-19, 1e-30])
def test_only_entries_below_the_bound_clamp(frozen, small):
    # SOFT_ONE's ratio of 7 puts the bound at 2**-56 / 49, about 2.8e-19.
    g = FactorGraph()
    ring = [g.add_variable(i) for i in range(100)]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        g.add_factor([a, b], SOFT_ONE, "ring")
        g.add_factor([a], [1.0, small, small], "seed")
    assert_matches_reference(g, BPConfig(convergence_eps=1e-300, max_iterations=20))
    assert sizes(frozen) == ([] if small > 2.0**-56 / 49 else [100])


def test_blocks_left_without_a_live_factor_are_skipped(monkeypatch, frozen):
    monkeypatch.setattr(factorgraph, "BP_BLOCK", 64)
    g = hub_graph(300)
    add_loopy(g, np.random.default_rng(47), 40, 100, [SOFT_ONE, flipped_table(SOFT_ONE)])
    assert_matches_reference(g, BPConfig())
    assert sizes(frozen) == [300] and sum(not mask.any() for mask in frozen[-1]) >= 3


def test_a_many_table_graph_freezes_and_matches_the_reference(frozen):
    rng = np.random.default_rng(53)
    tables = [*rng.uniform(0.05, 2.0, (6, 3, 3)), SOFT_ONE, flipped_table(SOFT_ONE), STRONG]
    g = hub_graph(200, paths=20)
    add_loopy(g, rng, 60, 200, tables)
    for config in (BPConfig(), BPConfig(convergence_eps=1e-12, max_iterations=300)):
        assert_matches_reference(g, config)
    assert sizes(frozen) and min(sizes(frozen)) > 0


@pytest.mark.parametrize("seed", range(4))
def test_random_hubs_with_late_evidence_match_the_reference(monkeypatch, frozen, seed):
    # Random tables near SOFT_ONE, chains of either table, a loopy part tied
    # to the hub and small blocks: freezes and releases span several blocks.
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(factorgraph, "BP_BLOCK", int(rng.choice([64, 256])))
    g = hub_graph(int(rng.integers(100, 200)), paths=int(rng.integers(150, 400)), length=int(rng.integers(2, 5)))
    tables = [np.clip(SOFT_ONE + rng.uniform(-0.05, 0.05, (3, 3)), 0.05, None) for _ in range(5)]
    add_loopy(g, rng, 30, 60, tables)
    g.add_factor([0, g.n_variables - 1], SOFT_ONE, "link")
    for config in (BPConfig(), BPConfig(convergence_eps=1e-12, max_iterations=200)):
        assert_matches_reference(g, config)
    assert 0 in sizes(frozen)  # the hub's factors were frozen and released


@pytest.mark.parametrize("spec", [TaskSpec("frames", "5", "dev"), TaskSpec("objects", "20", "test")])
def test_golden_world_bp_matches_the_reference(world, spec):
    # Its beliefs never clamp, so nothing freezes and every row is equal.
    g = build_graph(prepare(spec, world.paths), BuildConfig()).graph
    for config in (BPConfig(), BPConfig(damping=0.5)):
        reference, result = assert_matches_reference(g, config)
        assert np.array_equal(result.marginals, reference.marginals)


@pytest.mark.parametrize(
    "seed, shape, traffic",
    [
        (0, (60, 30, 600), {3: (0, 0), 4: (1, 1), 100: (1, 1)}),
        (2, (60, 30, 600), {4: (1, 1), 5: (1, 2), 100: (1, 2)}),
        (3, (60, 60, 900), {3: (1, 0), 4: (2, 1), 9: (2, 1), 10: (2, 2), 11: (2, 2), 12: (2, 3), 100: (2, 3)}),
    ],
)
def test_builder_graphs_that_freeze_and_release_match_the_reference(tmp_path, frozen, seed, shape, traffic):
    # Unlike the 30-object world's, these graphs' BP freezes factors and
    # releases some: ``traffic`` maps an iteration cap to the freezes and
    # releases of the run. A cap with one release more than the cap before
    # ends its run with that release.
    n_objects, n_verbs, n_pairs = shape
    world = generate_world(tmp_path, seed, n_objects, n_verbs, n_pairs)
    g = build_graph(prepare(TaskSpec("objects", "20", "test"), world.paths), BuildConfig()).graph
    for cap, (freezes, releases) in traffic.items():
        frozen.clear()
        assert_matches_reference(g, BPConfig(max_iterations=cap))
        steps = np.diff([0, *sizes(frozen)])
        assert (np.count_nonzero(steps > 0), np.count_nonzero(steps < 0)) == (freezes, releases)


def test_damped_bp_freezes_nothing(frozen):
    assert_matches_reference(hub_graph(150, paths=200), BPConfig(damping=0.5))
    assert frozen == []


# -- two processes: run_bp's worker owns the second half of the blocks --


@pytest.fixture
def forks(monkeypatch):
    """The worker pids os.fork returned in this process."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs ``seconds`` or longer."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def seed3_world(tmp_path_factory):
    """The builder world whose undamped objects/20/test BP freezes twice and releases three times."""
    return generate_world(tmp_path_factory.mktemp("seed3"), 3, 60, 60, 900)


@pytest.mark.parametrize("damping", [0.0, 0.5])
@pytest.mark.parametrize("spec", [TaskSpec("objects", "20", "test"), TaskSpec("frames", "5", "dev")])
def test_two_processes_give_the_one_process_result_bit_for_bit(monkeypatch, forks, frozen, seed3_world, spec, damping):
    monkeypatch.setattr(factorgraph, "BP_BLOCK", 64)
    g = build_graph(prepare(spec, seed3_world.paths), BuildConfig()).graph
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    two = run_bp(g, BPConfig(damping=damping))
    steps = np.diff([0, *sizes(frozen)])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = run_bp(g, BPConfig(damping=damping))
    assert len(forks) == 1
    assert (two.iterations, two.residuals, two.converged) == (one.iterations, one.residuals, one.converged)
    assert np.array_equal(two.marginals, one.marginals)
    if spec.task == "objects" and not damping:
        assert (np.count_nonzero(steps > 0), np.count_nonzero(steps < 0)) == (2, 3)
    assert_no_child_left()


def add_pairs(g: FactorGraph, rng, pairs: int) -> FactorGraph:
    """``pairs`` STRONG factors, each between two new variables, one of
    them with a random unary: their messages settle in the second iteration."""
    ends = g.n_variables + np.arange(2 * pairs).reshape(pairs, 2)
    for i in range(2 * pairs):
        g.add_variable(f"pair{i}")
    g.add_factors(["pair"], np.zeros(pairs), ends, np.zeros(pairs), binary_tables=[STRONG])
    g.add_factors(["seed"], np.zeros(pairs), np.column_stack([ends[:, 0], np.full(pairs, -1)]), np.arange(pairs),
                  unary_tables=rng.uniform(0.05, 2.0, (pairs, 3)))
    return g


@pytest.mark.parametrize("settled_first", [False, True])
def test_both_processes_stop_on_the_larger_change_of_the_two(monkeypatch, forks, settled_first):
    # Two blocks of loopy factors and two of pairs, at 64 factors a block:
    # one process's blocks settle long before the other's, so a process
    # that stopped on its own largest change would leave the other waiting.
    monkeypatch.setattr(factorgraph, "BP_BLOCK", 64)
    rng, g = np.random.default_rng(53), FactorGraph()
    if settled_first:  # the pairs' table comes first in the bank, so their blocks are the parent's
        add_loopy(add_pairs(g, rng, 128), rng, 40, 128, [SOFT_ONE])
    else:
        add_pairs(add_loopy(g, rng, 40, 128, [SOFT_ONE]), rng, 128)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with deadline(10):
        two = run_bp(g)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = run_bp(g)
    assert len(forks) == 1 and one.iterations > 5
    assert (two.iterations, two.residuals, two.converged) == (one.iterations, one.residuals, one.converged)
    assert np.array_equal(two.marginals, one.marginals)
    assert_no_child_left()


def hub_with_loops() -> FactorGraph:
    """400 binary factors: one block at the default BP_BLOCK, seven at 64."""
    g = hub_graph(300)
    return add_loopy(g, np.random.default_rng(47), 40, 100, [SOFT_ONE, flipped_table(SOFT_ONE)])


def test_run_bp_leaves_no_process_behind(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_bp(hub_with_loops())  # one block: one process
    assert forks == []
    monkeypatch.setattr(factorgraph, "BP_BLOCK", 64)
    run_bp(hub_with_loops())
    assert len(forks) == 1
    assert_no_child_left()
    # As in test_bp_names_the_first_variable_whose_belief_is_not_finite, in three blocks.
    monkeypatch.setattr(factorgraph, "BP_BLOCK", 2)
    g = FactorGraph()
    chain = [g.add_variable(f"v{i}") for i in range(6)]
    rng = np.random.default_rng(37)
    for a, b in zip(chain, chain[1:]):
        g.add_factor([a, b], rng.permutation(np.logspace(300, -300, 9)).reshape(3, 3))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^belief of variable 0 \('v0'\) is not finite"):
        run_bp(g, BPConfig())
    assert len(forks) == 2
    assert_no_child_left()


def fail_in_second_sweep(monkeypatch, worker: bool, fail):
    """Call ``fail`` in the second sweep of the worker, or of the parent."""
    test, sweep, calls = os.getpid(), factorgraph._Frozen.sweep, []

    def spy(self):
        calls.append(None)
        if (os.getpid() != test) == worker and len(calls) == 2:
            fail()
        return sweep(self)

    monkeypatch.setattr(factorgraph._Frozen, "sweep", spy)


def fail():
    raise RuntimeError("a failure of one process")


@pytest.mark.parametrize("kill, status", [(False, 1), (True, -signal.SIGKILL)])
def test_a_worker_that_dies_makes_the_parent_raise(monkeypatch, capfd, forks, kill, status):
    monkeypatch.setattr(factorgraph, "BP_BLOCK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fail_in_second_sweep(monkeypatch, True, (lambda: os.kill(os.getpid(), signal.SIGKILL)) if kill else fail)
    with deadline(10), pytest.raises(RuntimeError) as raised:
        run_bp(hub_with_loops())
    assert str(raised.value) == f"BP worker process {forks[0]} exited with status {status}"
    # The worker printed why it failed; a killed one could not.
    assert ("RuntimeError: a failure of one process" in capfd.readouterr().err) == (not kill)
    assert_no_child_left()


def test_a_failing_parent_kills_its_worker(monkeypatch, forks):
    monkeypatch.setattr(factorgraph, "BP_BLOCK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fail_in_second_sweep(monkeypatch, False, fail)
    with deadline(10), pytest.raises(RuntimeError, match="^a failure of one process$"):
        run_bp(hub_with_loops())
    assert len(forks) == 1
    assert_no_child_left()


def test_a_signal_that_stops_the_parent_waiting_for_its_worker_is_not_the_worker_s_failure(monkeypatch, forks):
    # The alarm's TimeoutError (an OSError) reaches the caller as it is, and the sleeping worker is killed.
    monkeypatch.setattr(factorgraph, "BP_BLOCK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fail_in_second_sweep(monkeypatch, True, lambda: time.sleep(60))
    with pytest.raises(TimeoutError, match="^still running after 1 s$"), deadline(1):
        run_bp(hub_with_loops())
    assert len(forks) == 1
    assert_no_child_left()


# -- exact enumeration oracle --


def test_exact_single_unary():
    g = FactorGraph()
    v = g.add_variable("a")
    g.add_factor([v], [2.0, 1.0, 1.0])
    assert np.allclose(exact_marginals(g)[v], [0.5, 0.25, 0.25])


def test_exact_rejects_above_cap():
    g = FactorGraph()
    for i in range(13):
        g.add_variable(i)
    with pytest.raises(ValueError):
        exact_marginals(g)


def test_exact_handles_reversed_scope_order():
    g = FactorGraph()
    a = g.add_variable("a")
    b = g.add_variable("b")
    g.add_factor([b, a], SOFT_ONE)  # scope in descending id order
    g.add_factor([b], [0.7, 0.1, 0.2])
    bp = run_bp(g, BPConfig(damping=0.0, convergence_eps=1e-12))
    assert np.abs(bp.marginals - exact_marginals(g)).max() < 1e-9


# -- dump / load --


def test_dump_load_round_trip():
    rng = np.random.default_rng(29)
    g = random_loopy(rng, 5, extra_edges=2)
    text = dump_graph(g)
    reloaded = load_graph(text)
    assert dump_graph(reloaded) == text
    assert reloaded.n_variables == g.n_variables
    assert len(factors(reloaded)) == len(factors(g))
    for f, f2 in zip(factors(g), factors(reloaded)):
        assert f.scope == f2.scope and f.kind == f2.kind
        assert np.array_equal(f.table, f2.table)
    assert np.allclose(exact_marginals(reloaded), exact_marginals(g))


@pytest.mark.parametrize("key", ["ant\x1cbee", "ant\tbee", "ant\nbee", "ant\r"])
def test_dump_rejects_a_node_key_with_a_tab_or_line_break(key):
    # load_graph splits lines as str.splitlines does and fields at tabs, so
    # such a key would dump to a text it rejects, or ("ant\r" running into
    # its line's "\n") reads back as another key.
    g = FactorGraph()
    for node in ("ant", key, "bee"):
        g.add_variable(node)
    with pytest.raises(ValueError, match=re.escape(f"variable 1: node key {key!r} holds a tab or a line break")):
        dump_graph(g)


@pytest.mark.parametrize("kind", ["x\ty", "x\ny", "x\u2028y"])
def test_dump_rejects_a_kind_with_a_tab_or_line_break(kind):
    # load_graph would reject the dumped text at the factor's line.
    g = FactorGraph()
    a, b = g.add_variable("a"), g.add_variable("b")
    g.add_factor([a], [0.2, 0.3, 0.5], kind="ok")
    g.add_factor([a, b], SOFT_ONE, kind=kind)
    with pytest.raises(ValueError, match=re.escape(f"factor 1: kind {kind!r} holds a tab or a line break")):
        dump_graph(g)


@pytest.mark.parametrize("block", [1, 2, 3, factorgraph.TEXT_BLOCK])
def test_dump_keeps_percent_signs_in_kinds_and_dumps_an_empty_graph(monkeypatch, block):
    monkeypatch.setattr(factorgraph, "TEXT_BLOCK", block)
    assert dump_graph(FactorGraph()) == ""
    g = FactorGraph()
    a, b = g.add_variable("%d"), g.add_variable("b%")
    for kind in ("%s", "%d%%", "100%", "%(a)s"):
        g.add_factor([a], [0.2, 0.3, 0.5], kind=kind)
        g.add_factor([b, a], SOFT_ONE, kind=kind)
    text = dump_graph(g)
    assert text == reference_dump_graph(g)
    assert dump_graph(load_graph(text)) == text


def test_line_breaks_are_those_splitlines_knows_besides_newline():
    breaks = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1]
    assert sorted(LINE_BREAKS + "\n") == breaks


@pytest.mark.parametrize("block", [1, 2, 3])
def test_load_reads_a_text_piece_by_piece_as_one(monkeypatch, block):
    # Small blocks cut the text into pieces of a line or two, each ending just
    # after a "\n", also the "\n" of a "\r\n".
    text = dump_graph(random_loopy(np.random.default_rng(31), 6, extra_edges=3))
    lines = text.splitlines()
    monkeypatch.setattr(factorgraph, "TEXT_BLOCK", block)
    for variant in (text, text.replace("\n", "\r\n"), "\n\x1c# note\r".join(lines)):
        assert dump_graph(load_graph(variant)) == text
    bad = "\r\n".join(lines[:-1] + ["factor\tx"] + lines[-1:])
    with pytest.raises(ValueError, match=f"^line {len(lines)}: "):
        load_graph(bad)


def test_load_rejects_malformed_lines():
    with pytest.raises(ValueError):
        load_graph("var\t0\n")
    with pytest.raises(ValueError):
        load_graph("thing\t0\tx\n")
    # Ids that are not positions would bind scopes to the wrong variables.
    with pytest.raises(ValueError, match="^line 1: "):
        load_graph("var\t5\ta\nvar\t9\tb\nfactor\t42\tk\t0,1\t" + " ".join(["1"] * 9) + "\n")


@pytest.mark.parametrize(
    "bad_line",
    [
        "factor\t2\tk\t0,1\t1 1 1",  # three values for a binary scope
        "factor\t2\tk\t0\t" + " ".join(["1"] * 9),  # nine values for a unary scope
        "factor\t2\tk\t0,1,0\t" + " ".join(["1"] * 9),  # arity 3
        "factor\t2\tk\tzero\t1 1 1",  # non-integer scope
        "factor\t2\tk\t0,-1\t" + " ".join(["1"] * 9),  # negative variable id
        "factor\t2\tk\t1,1\t" + " ".join(["1"] * 9),  # both ends one variable
        "factor\t2\tk\t0,-0\t" + " ".join(["1"] * 9),  # both ends one variable, spelled twice
        "factor\t2\tk\t0,7\t" + " ".join(["1"] * 9),  # unknown variable
        "factor\t2\tk\t1\t0.5 0.0 0.5",  # non-positive table
        "factor\t2\tk\t1\t0.5 inf 0.5",  # infinite unary table
        "factor\t2\tk\t0,1\t" + " ".join(["1"] * 8 + ["inf"]),  # infinite binary table
        "factor\t2\tk\t1\t0.5 x 0.5",  # non-numeric value
        "factor\t2\tk\t1",  # missing column
        "var\t2\ta",  # duplicate variable
        "var\t3\tc",  # variable id past its position
        "var\t1\tc",  # variable id already taken
        "factor\t4\tk\t1\t1 1 1",  # factor id past its position
        "factor\t0\tk\t1\t1 1 1",  # factor id already taken
    ],
)
def test_load_names_the_malformed_line(bad_line):
    text = "var\t0\ta\nvar\t1\tb\n\nfactor\t0\tk\t0,1\t" + " ".join(["2"] * 9) + "\nfactor\t1\tk\t0\t1 2 3\n"
    load_graph(text)
    with pytest.raises(ValueError, match=r"^line 6: "):
        load_graph(text + bad_line + "\n" + "factor\t3\tk\t1\t1 1 1\n")


@pytest.mark.parametrize("block", [1, 2, 3, factorgraph.TEXT_BLOCK])
def test_load_keeps_first_seen_order_whatever_the_block(monkeypatch, block):
    # Kinds and tables are passed to add_factors in an order other than the
    # one their factors first use; the loaded graph has first-seen order, and
    # with blocks of 1-3 lines each block holds only a few of the 40 tables.
    rng = np.random.default_rng(47)
    g = FactorGraph()
    for i in range(12):
        g.add_variable(f"v{i}")
    tables = rng.uniform(0.05, 2.0, (40, 3, 3))
    b = 90
    first = rng.integers(0, 12, b)
    scopes = np.column_stack([first, (first + rng.integers(1, 12, b)) % 12])
    table_ids = rng.permutation(np.arange(b) % 40)
    g.add_factors(["z", "a", "m"], rng.integers(0, 3, b), scopes, table_ids, binary_tables=tables)
    g.add_factors(["seed"], np.zeros(12), np.column_stack([np.arange(12), np.full(12, -1)]), np.arange(12) % 3,
                  unary_tables=rng.uniform(0.1, 1.0, (3, 3)))
    text = dump_graph(g)
    fields = [line.split("\t") for line in text.splitlines() if line.startswith("factor\t")]
    expected = run_bp(load_graph(text), BPConfig(max_iterations=20)).marginals  # at the default block
    monkeypatch.setattr(factorgraph, "TEXT_BLOCK", block)
    loaded = load_graph(text)
    assert loaded.kinds == list(dict.fromkeys(f[2] for f in fields)) != g.kinds
    bank_text = [" ".join(map(repr, t.ravel().tolist())) for t in loaded.bank]
    assert bank_text == list(dict.fromkeys(f[4] for f in fields if "," in f[3]))
    assert len(loaded.bank) == len(g.bank) and not all(map(np.array_equal, loaded.bank, g.bank))
    assert dump_graph(loaded) == text
    assert np.array_equal(run_bp(loaded, BPConfig(max_iterations=20)).marginals, expected)


def similarity_graph(n: int, b: int) -> FactorGraph:
    """``n`` variables, each with a seed row, and ``b`` binary factors between random distinct ends."""
    rng = np.random.default_rng(43)
    g = FactorGraph()
    for i in range(n):
        g.add_variable(i)
    first = rng.integers(0, n, b)
    scopes = np.column_stack([first, (first + rng.integers(1, n, b)) % n])
    g.add_factors(["sim"], np.zeros(b), scopes, rng.integers(0, 2, b), binary_tables=[SOFT_ONE, flipped_table(SOFT_ONE)])
    g.add_factors(["seed"], np.zeros(n), np.column_stack([np.arange(n), np.full(n, -1)]), np.arange(n) % 2,
                  unary_tables=[[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]])
    return g


def test_load_memory_peak_does_not_grow_with_the_factor_count(monkeypatch):
    # Each block of factor records goes straight into the graph, so what
    # load_graph holds beyond the graph it returns is about one block's worth.
    monkeypatch.setattr(factorgraph, "TEXT_BLOCK", 1024)
    n = 20_000
    extra = []
    for b in (25_000, 100_000):
        g = similarity_graph(n, b)
        text = dump_graph(g)
        del g
        tracemalloc.start()
        try:
            loaded = load_graph(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.n_variables == n
        extra.append(peak - retained)
    assert extra[1] - extra[0] < 2**20


def test_writing_a_dump_holds_one_block_of_its_text(monkeypatch, tmp_path):
    # write_outputs writes each piece graph_text formats before the next is
    # made, so the peak of writing graph.txt does not grow with the factor
    # count (0.6 MiB more for the per-factor value ids); dump_graph's whole
    # text would add 9.5 MiB between the two.
    monkeypatch.setattr(factorgraph, "TEXT_BLOCK", 1024)
    peaks = []
    for b in (25_000, 100_000):
        g = similarity_graph(20_000, b)
        g.columns()  # join the chunks before tracing
        tracemalloc.start()
        try:
            write_outputs(tmp_path / str(b), {"graph.txt": graph_text(g)})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (tmp_path / str(b) / "graph.txt").read_text(encoding="utf-8") == dump_graph(g)
    assert peaks[1] - peaks[0] < 2**20
