"""Acceptance gate: one test per criterion, each printing a pass line.

Criteria 4-6 reproduce published statistics of the released knowledge data.
When that data is not present (see README for where to put it), criterion 6
switches to its synthetic-world oracle and the released-data assertions of
criteria 4-5 are skipped with an explicit reason; everything else runs
unconditionally.
"""
import time

import numpy as np
import pytest

from physrel.builder import BuildConfig
from physrel.cli import main
from physrel.core import ObjectPairNode
from physrel.factorgraph import BPConfig, FactorGraph, exact_marginals, run_bp
from physrel.harness import (
    DataPaths,
    TaskSpec,
    assemble_task_dataset,
    baseline_majority,
    baseline_random,
    run_ablation,
    run_task,
    tune_thresholds,
)
from physrel.lexstats import load_dataset
from conftest import (
    RELEASED_DATA_DIR,
    loss_and_grad,
    released_data_available,
    size_only_copies,
    split_counts,
    usable_counts,
)

from test_maxent import finite_difference_grad

requires_released = pytest.mark.skipif(
    not released_data_available(),
    reason=f"released knowledge data not found under {RELEASED_DATA_DIR}",
)


def ok(n, message):
    print(f"\nACCEPTANCE CRITERION {n}: PASS - {message}")


def tree_of(rng, n):
    g = FactorGraph()
    for i in range(n):
        g.add_variable(i)
    for i in range(1, n):
        g.add_factor([int(rng.integers(0, i)), i], rng.uniform(0.05, 2.0, (3, 3)))
    for i in range(n):
        if rng.random() < 0.8:
            g.add_factor([i], rng.uniform(0.05, 2.0, 3))
    return g


def random_tree(rng, max_vars):
    return tree_of(rng, int(rng.integers(1, max_vars + 1)))


def random_loopy(rng, max_vars):
    g = tree_of(rng, int(rng.integers(3, max_vars + 1)))
    for _ in range(int(rng.integers(1, 4))):
        a, b = rng.choice(g.n_variables, size=2, replace=False)
        g.add_factor([int(a), int(b)], rng.uniform(0.05, 2.0, (3, 3)))
    return g


def test_criterion_1_bp_exact_on_trees():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        g = random_tree(rng, 10)
        bp = run_bp(g, BPConfig(damping=0.5, convergence_eps=1e-10, max_iterations=200))
        worst = max(worst, float(np.abs(bp.marginals - exact_marginals(g)).max()))
    elapsed = time.time() - start
    assert worst < 1e-6, f"worst tree marginal error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    ok(1, f"200 random trees within 1e-6 of exact enumeration (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_bp_sane_on_loops():
    rng = np.random.default_rng(1002)
    converged = 0
    for _ in range(50):
        g = random_loopy(rng, 8)
        bp = run_bp(g, BPConfig(damping=0.5, convergence_eps=1e-5, max_iterations=100))
        assert np.abs(bp.marginals.sum(axis=1) - 1.0).max() < 1e-9
        converged += bp.converged
    assert converged >= 40, f"only {converged}/50 damped runs converged"
    ok(2, f"50 loopy graphs terminated with normalized marginals; {converged}/50 converged")


def test_criterion_3_gradient_check():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(3, 20)), int(rng.integers(2, 15))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 3, size=n)
        weights = rng.normal(scale=0.7, size=(3, d))
        bias = rng.normal(scale=0.7, size=3)
        l2 = float(rng.uniform(0, 1.0))
        _, grad_w, grad_b = loss_and_grad(weights, bias, X, y, l2)
        fd_w, fd_b = finite_difference_grad(weights, bias, X, y, l2)
        denom = max(np.abs(fd_w).max(), np.abs(fd_b).max(), 1e-8)
        rel = max(np.abs(grad_w - fd_w).max(), np.abs(grad_b - fd_b).max()) / denom
        worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative gradient error {worst}"
    ok(3, f"analytic vs central-difference gradients over 20 configs (worst rel err {worst:.2e})")


@requires_released
def test_criterion_4_data_contract():
    paths = DataPaths.from_dir(RELEASED_DATA_DIR)
    ds5 = load_dataset(paths.frames_5, paths.pairs_5)
    counts5 = split_counts(ds5)
    assert counts5["frames"] == {"seed": 65, "dev": 333, "test": 415}
    assert counts5["pairs"] == {"seed": 183, "dev": 1645, "test": 1828}
    assert len(ds5.frames) == 813 and len(ds5.pairs) == 3656
    usable = usable_counts(ds5)
    assert usable["frames"]["size"] == 615
    assert usable["pairs"]["size"] == 2552
    ds20 = load_dataset(paths.frames_20, paths.pairs_20)
    counts20 = split_counts(ds20)
    assert counts20["frames"] == {"seed": 188, "dev": 210, "test": 415}
    assert counts20["pairs"] == {"seed": 733, "dev": 1096, "test": 1828}
    ok(4, "released data reproduces the published split and usable counts")


def test_criterion_5_random_baseline(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="5", eval_split="test")
    if released_data_available():
        dataset = assemble_task_dataset(DataPaths.from_dir(RELEASED_DATA_DIR), spec)
        source = "released"
    else:
        dataset = assemble_task_dataset(world.paths, spec)
        source = "synthetic"
    report = baseline_random(dataset, spec, rng_seed=0, resamples=10_000)
    assert abs(report.overall - 1 / 3) < 0.02
    ok(5, f"RANDOM mean accuracy {report.overall:.4f} within 0.333 +/- 0.02 over 10k resamples ({source} data)")


@requires_released
def test_criterion_5_majority_baseline_published_rows():
    paths = DataPaths.from_dir(RELEASED_DATA_DIR)
    frame_spec = TaskSpec(task="frames", cross_seed_fraction="5", eval_split="test")
    frame_report = baseline_majority(assemble_task_dataset(paths, frame_spec), frame_spec)
    assert frame_report.per_attribute["speed"] == pytest.approx(0.88, abs=0.01)
    assert frame_report.overall == pytest.approx(0.44, abs=0.01)
    object_spec = TaskSpec(task="objects", cross_seed_fraction="5", eval_split="dev")
    object_report = baseline_majority(assemble_task_dataset(paths, object_spec), object_spec)
    assert object_report.overall == pytest.approx(0.51, abs=0.01)
    ok(5, "MAJORITY matches the published rows within 0.01")


@requires_released
def test_criterion_6_model_reproduction_released(tmp_path):
    paths = DataPaths.from_dir(RELEASED_DATA_DIR)
    grid = [
        BuildConfig(),
        BuildConfig(enabled_factor_kinds=frozenset({"seed", "emb", "selpref", "verbsim", "objsim"})),
        BuildConfig(obj_sim_threshold=0.8),
        BuildConfig(verb_sim_threshold=0.65),
        BuildConfig(pmi_threshold=1.0),
    ]
    for task, target in (("frames", 0.75), ("objects", 0.70)):
        spec = TaskSpec(task=task, cross_seed_fraction="20", eval_split="test")
        tuned = tune_thresholds(spec, grid, paths, BPConfig())
        result = run_task(spec, tuned.best, BPConfig(), paths)
        assert abs(result.report.overall - target) <= 0.05
    # The selpref ablation is measured along size alone: on label files that hold only size rows.
    size_spec = TaskSpec(task="frames", cross_seed_fraction="5", eval_split="dev")
    ablation = run_ablation(size_spec, BuildConfig(), "selpref", BPConfig(), size_only_copies(paths, tmp_path))
    assert ablation.full.overall - ablation.ablated.overall >= 0.05
    ok(6, "released-data reproduction within 0.05 and selpref ablation ordering holds")


@pytest.mark.skipif(released_data_available(), reason="released data present; the reproduction branch runs instead")
def test_criterion_6_fixture_oracle(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="test")
    full = run_task(spec, BuildConfig(), BPConfig(), world.paths)
    seed_only = run_task(
        spec, BuildConfig(enabled_factor_kinds=frozenset({"seed"})), BPConfig(), world.paths
    )
    assert full.report.overall >= 0.90, f"full model recovered only {full.report.overall:.3f}"
    assert seed_only.report.overall <= 0.50, f"seed-only recovered {seed_only.report.overall:.3f}"
    ok(
        6,
        "synthetic 30-object world: full model recovers "
        f"{full.report.overall:.3f} >= 0.90 of held-out relations, seed-only {seed_only.report.overall:.3f} <= 0.50",
    )


def test_criterion_7_end_to_end_determinism(world, tmp_path):
    data = str(world.paths.frames_5.parent)
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        argv = ["infer", "--data-dir", data, "--out-dir", str(out), "--task", "objects", "--cross", "20"]
        assert main([*argv, "--eval-split", "test"]) == 0
        outputs.append(out)
    for name in ("graph.txt", "report.tsv", "report.json", "predictions.tsv", "build_report.tsv"):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    ok(7, "two identical runs produced byte-identical graph dumps and reports")


def test_criterion_8_orientation_symmetry(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="test")
    result = run_task(spec, BuildConfig(), BPConfig(), world.paths)
    checked = 0
    for prediction in result.predictions:
        node = prediction.node
        if not isinstance(node, ObjectPairNode):
            continue
        fwd = result.pair_belief(node.x, node.y, node.attribute)
        rev = result.pair_belief(node.y, node.x, node.attribute)
        assert np.array_equal(rev, fwd[[2, 1, 0]]), f"orientation mismatch for {node.key}"
        checked += 1
    assert checked > 0
    ok(8, f"reversed-orientation queries are exact GT/LT permutations for all {checked} evaluated pairs")
