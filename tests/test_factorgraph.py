"""Factor graph and BP: message math, tree exactness, robustness."""
import numpy as np
import pytest

from physrel.builder import SOFT_ONE
from physrel.factorgraph import (
    BPConfig,
    FactorGraph,
    dump_graph,
    exact_marginals,
    load_graph,
    message_factor_to_var,
    message_var_to_factor,
    run_bp,
)

UNIFORM = np.full(3, 1 / 3)


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
    with pytest.raises(ValueError):
        g.add_factor([v], np.ones((3, 3)))  # arity/table mismatch
    with pytest.raises(ValueError):
        g.add_factor([v, 7], np.ones((3, 3)))  # unknown variable
    with pytest.raises(ValueError):
        g.add_factor([], np.ones(3))
    with pytest.raises(ValueError):
        g.add_variable("a")  # duplicate node


def test_bp_config_validation():
    with pytest.raises(ValueError):
        BPConfig(max_iterations=0)
    with pytest.raises(ValueError):
        BPConfig(convergence_eps=0.0)
    with pytest.raises(ValueError):
        BPConfig(damping=1.0)


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
    """Dual route: naive per-edge flooding BP built from the exposed message
    ops must agree with the vectorized engine at damping 0."""
    rng = np.random.default_rng(13)
    g = random_loopy(rng, 6, extra_edges=2)
    iterations = 37

    f2v = {}
    v2f = {}
    for f in g.factors:
        for v in f.scope:
            f2v[(f.id, v)] = UNIFORM.copy()
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
        for fid in g.neighbors(v):
            log_p += np.log(f2v[(fid, v)])
        log_p -= log_p.max()
        p = np.exp(log_p)
        reference[v] = p / p.sum()

    result = run_bp(g, BPConfig(damping=0.0, convergence_eps=1e-300, max_iterations=iterations))
    assert not result.converged and result.iterations == iterations
    assert np.abs(result.marginals - reference).max() < 1e-12


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
    assert reloaded.n_factors == g.n_factors
    for f, f2 in zip(g.factors, reloaded.factors):
        assert f.scope == f2.scope and f.kind == f2.kind
        assert np.array_equal(f.table, f2.table)
    assert np.allclose(exact_marginals(reloaded), exact_marginals(g))


def test_load_rejects_malformed_lines():
    with pytest.raises(ValueError):
        load_graph("var\t0\n")
    with pytest.raises(ValueError):
        load_graph("thing\t0\tx\n")
