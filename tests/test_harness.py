"""Experiment driver: baselines, tasks, ablations, tuning, CLI."""
import json
import re

import numpy as np
import pytest

from physrel.builder import BuildConfig, add_attribute_factors, add_seed_and_emb_factors, make_nodes, train_models
from physrel.core import ATTRIBUTES, Attribute, ObjectPairNode, RelationValue
from physrel import harness
from physrel.factorgraph import BPConfig, dump_graph
from physrel.harness import (
    DataPaths,
    TaskSpec,
    assemble_task_dataset,
    baseline_emb_maxent,
    baseline_majority,
    baseline_random,
    build_graph,
    infer,
    load_world,
    prepare,
    run_ablation,
    run_task,
    toggle_switch,
    tune_thresholds,
)
from physrel.lexstats import EmbeddingStore, Embeddings, LabelAccessError
from conftest import make_dataset, size_only_copies
from test_maxent import load_model

SIZE, WEIGHT = Attribute.SIZE, Attribute.WEIGHT
GT, EQ, LT = RelationValue.GT, RelationValue.EQ, RelationValue.LT


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(task="verbs")
    with pytest.raises(ValueError):
        TaskSpec(cross_seed_fraction="50")
    with pytest.raises(ValueError):
        TaskSpec(eval_split="seed")


# -- baselines on hand-built data --


def majority_dataset():
    # Seeds: 3x GT, 1x LT. Dev golds: GT, GT, LT -> majority (GT) scores 2/3.
    pairs = [
        ("a", "b", "seed", {SIZE: GT}),
        ("c", "d", "seed", {SIZE: GT}),
        ("e", "f", "seed", {SIZE: GT}),
        ("g", "h", "seed", {SIZE: LT}),
        ("i", "j", "dev", {SIZE: GT}),
        ("k", "l", "dev", {SIZE: GT}),
        ("m", "n", "dev", {SIZE: LT}),
    ]
    return make_dataset(pairs=pairs)


def test_baseline_majority_accuracy():
    ds = majority_dataset()
    spec = TaskSpec(task="objects", eval_split="dev")
    report = baseline_majority(ds, spec)
    assert report.per_attribute["size"] == pytest.approx(2 / 3)
    assert report.counts["size"] == 3
    assert report.overall == pytest.approx(2 / 3)


def test_baseline_majority_requires_seeds():
    ds = make_dataset(pairs=[("a", "b", "dev", {SIZE: GT})])
    with pytest.raises(ValueError, match="empty seed"):
        baseline_majority(ds, TaskSpec(task="objects"))


def test_baseline_majority_tie_breaks_canonically():
    ds = make_dataset(
        pairs=[
            ("a", "b", "seed", {SIZE: EQ}),
            ("c", "d", "seed", {SIZE: LT}),
            ("e", "f", "dev", {SIZE: EQ}),
        ]
    )
    report = baseline_majority(ds, TaskSpec(task="objects"))
    # EQ and LT tie at one each; EQ wins by index order.
    assert report.per_attribute["size"] == 1.0


def test_baseline_random_deterministic_and_binary_on_single_item():
    ds = make_dataset(pairs=[("a", "b", "seed", {SIZE: GT}), ("c", "d", "dev", {SIZE: LT})])
    spec = TaskSpec(task="objects", eval_split="dev")
    r1 = baseline_random(ds, spec, rng_seed=7)
    r2 = baseline_random(ds, spec, rng_seed=7)
    assert r1.to_tsv() == r2.to_tsv()
    assert r1.per_attribute["size"] in (0.0, 1.0)


def test_baseline_random_mean_near_third():
    ds = majority_dataset()
    spec = TaskSpec(task="objects", eval_split="dev")
    report = baseline_random(ds, spec, rng_seed=0, resamples=10_000)
    assert report.overall == pytest.approx(1 / 3, abs=0.02)


def test_baseline_emb_maxent_perfect_on_separable_fixture():
    # Object embeddings whose first coordinate's sign determines the label;
    # seed and dev items follow the same rule, so the classifier must hit 1.0.
    objs = {}
    pairs = []
    for i in range(8):
        hi, lo = f"h{i}", f"l{i}"
        up = np.zeros(50)
        up[0] = 1.0 + 0.05 * i
        down = np.zeros(50)
        down[0] = -1.0 - 0.05 * i
        objs[hi], objs[lo] = up, down
        split = "seed" if i < 4 else "dev"
        label = GT if hi < lo else LT  # gold in canonical order
        x, y = sorted((hi, lo))
        pairs.append((x, y, split, {SIZE: GT if objs[x][0] > objs[y][0] else LT}))
    ds = make_dataset(pairs=pairs)
    emb = Embeddings(EmbeddingStore(100, {}), EmbeddingStore(50, objs))
    models = train_models(ds, emb)
    report = baseline_emb_maxent(ds, TaskSpec(task="objects", eval_split="dev"), models)
    assert report.per_attribute["size"] == 1.0


# -- report invariants --


def test_report_overall_is_macro_mean(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="5", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec)
    report = baseline_majority(ds, spec)
    assert report.overall == pytest.approx(np.mean(list(report.per_attribute.values())), abs=1e-12)
    micro = sum(report.per_attribute[a] * report.counts[a] for a in report.per_attribute) / sum(
        report.counts[a] for a in report.per_attribute
    )
    assert report.micro == pytest.approx(micro, abs=1e-12)


def test_report_serialization_stable(world):
    spec = TaskSpec(task="objects", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec)
    r = baseline_majority(ds, spec)
    assert r.to_tsv() == baseline_majority(ds, spec).to_tsv()
    payload = json.loads(r.to_json())
    assert payload["algorithm"] == "majority"
    assert 0.0 <= payload["overall"] <= 1.0


# -- run_task --


def test_run_task_seed_nodes_dominated_by_their_seeds(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="5", eval_split="dev")
    cfg = BuildConfig(enabled_factor_kinds=frozenset({"seed"}))
    result = run_task(spec, cfg, BPConfig(), world.paths)
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed", "dev"}, {"seed", "dev"})
    checked = 0
    for item in ds.pairs_in("seed"):
        for attribute in (a for a in ATTRIBUTES if ds.has_label(item, a)):
            belief = result.beliefs[item.node(attribute)]
            assert np.argmax(belief) == ds.gold(item, attribute)
            checked += 1
    assert checked > 0


def test_run_task_full_model_beats_seed_only(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="dev")
    full = run_task(spec, BuildConfig(), BPConfig(), world.paths)
    seed_only = run_task(
        spec, BuildConfig(enabled_factor_kinds=frozenset({"seed"})), BPConfig(), world.paths
    )
    assert full.report.overall > seed_only.report.overall + 0.2


def test_run_task_report_fields(world):
    spec = TaskSpec(task="frames", cross_seed_fraction="5", eval_split="dev")
    result = run_task(spec, BuildConfig(), BPConfig(), world.paths)
    report = result.report
    assert report.task == "frames" and report.eval_split == "dev"
    assert set(report.per_attribute) <= {a.value for a in Attribute}
    assert all(0.0 <= v <= 1.0 for v in report.per_attribute.values())
    assert report.converged is not None and report.iterations >= 1
    assert len(report.config_fingerprint) == 16
    assert len(result.predictions) == sum(report.counts.values())


def test_report_residual_is_the_last_bp_residual(world):
    prepared = prepare(TaskSpec(task="objects", cross_seed_fraction="20", eval_split="test"), world.paths)
    stopped = set()
    for bp_cfg in (BPConfig(), BPConfig(max_iterations=2)):
        result = infer(prepared, BuildConfig(), bp_cfg)
        report = result.report
        assert report.residual == result.bp.residuals[-1]
        assert (report.residual < bp_cfg.convergence_eps) == report.converged
        assert f"residual\t{report.residual!r}\n" in report.to_tsv()
        assert json.loads(report.to_json())["residual"] == report.residual
        stopped.add(report.converged)
    assert stopped == {True, False}
    baseline = baseline_majority(prepared.dataset, prepared.spec)
    assert baseline.residual is None and "residual\tNone\n" in baseline.to_tsv()


def test_run_task_pair_belief_orientation(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="5", eval_split="dev")
    result = run_task(spec, BuildConfig(), BPConfig(), world.paths)
    node = next(n for n in result.beliefs if isinstance(n, ObjectPairNode))
    fwd = result.pair_belief(node.x, node.y, node.attribute)
    rev = result.pair_belief(node.y, node.x, node.attribute)
    assert np.array_equal(rev, fwd[[2, 1, 0]])
    assert np.array_equal(fwd, result.beliefs[node])


def test_audit_guard_trips_on_eval_label_read_during_build(world):
    spec = TaskSpec(task="objects", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed", "dev"}, {"seed", "dev"})
    dev_item = ds.pairs_in("dev")[0]
    attribute = next(a for a in ATTRIBUTES if ds.has_label(dev_item, a))
    with ds.audit_label_access({"seed"}):
        with pytest.raises(LabelAccessError):
            ds.gold(dev_item, attribute)


def test_every_bulk_label_read_is_audited(world, monkeypatch):
    # Make "seed" name every row: each read that the builder, the trainer or
    # the majority baseline makes under the seed-only guard must then trip it.
    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="dev")
    ds = assemble_task_dataset(world.paths, spec).restrict({"seed", "dev"}, {"seed", "dev"})
    emb, _ = load_world(world.paths)
    models = train_models(ds, emb)
    b = make_nodes(ds)
    monkeypatch.setattr(ds, "rows_in", lambda kind, *splits: np.arange(len(getattr(ds, kind))))
    reads = {
        "training": lambda: train_models(ds, emb),
        "seed factors": lambda: add_seed_and_emb_factors(b, models, BuildConfig()),
        "attrsim": lambda: add_attribute_factors(b, BuildConfig()),
        "majority baseline": lambda: baseline_majority(ds, spec),
    }
    for name, read in reads.items():
        with pytest.raises(LabelAccessError, match="'dev' item"):
            read()
    with ds.audit_label_access({"seed"}):
        with pytest.raises(LabelAccessError):
            ds.gold_rows("pairs", np.arange(len(ds.pairs)))


@pytest.mark.parametrize("resamples", [0, -1])
def test_baseline_random_rejects_resamples_below_one(world, tmp_path, capsys, resamples):
    from physrel.cli import main

    ds = majority_dataset()
    with pytest.raises(ValueError, match=f"resamples must be >= 1, got {resamples}"):
        baseline_random(ds, TaskSpec(task="objects", eval_split="dev"), resamples=resamples)
    argv = ["eval", "--algorithm", "random", "--resamples", str(resamples), "--task", "objects"]
    assert main([*argv, "--data-dir", str(world.paths.frames_5.parent), "--out-dir", str(tmp_path)]) == 1
    assert f"resamples must be >= 1, got {resamples}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("resamples", [True, 2.5, "3", None])
def test_baseline_random_rejects_resamples_that_are_not_an_int(resamples):
    with pytest.raises(ValueError, match=f"^resamples must be an int, not {re.escape(repr(resamples))}$"):
        baseline_random(majority_dataset(), TaskSpec(task="objects", eval_split="dev"), resamples=resamples)


def test_baseline_random_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="rng_seed must be an int >= 0, not -1"):
        baseline_random(majority_dataset(), TaskSpec(task="objects", eval_split="dev"), rng_seed=-1)


def test_run_result_times_every_stage(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="dev")
    result = run_task(spec, BuildConfig(), BPConfig(), world.paths)
    stages = ["nodes", "seed_emb", "selpref", "similarity", "attrsim"]
    assert list(result.timings) == ["load", "train", *(f"build.{s}" for s in stages), "bp", "score"]
    assert all(s >= 0.0 for s in result.timings.values())
    untrained = run_task(spec, BuildConfig(enabled_factor_kinds=frozenset({"seed"})), BPConfig(), world.paths)
    assert list(untrained.timings) == ["load", "build.nodes", "build.seed_emb", "bp", "score"]


def test_missing_object_vectors_warn_once_per_featurized_batch(world, tmp_path, caplog):
    # Three objects lose their vectors: training and the graph's classifier
    # factors each featurize their pairs in one batch, and each batch warns once.
    removed = ["o00", "o01", "o02"]
    for path in world.paths.frames_5.parent.iterdir():
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if path.name == "embeddings_objects.txt":
            assert sum(line.split(" ", 1)[0] in removed for line in lines) == len(removed)
            lines = [line for line in lines if line.split(" ", 1)[0] not in removed]
        (tmp_path / path.name).write_text("".join(lines), encoding="utf-8")
    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="dev")
    with caplog.at_level("WARNING", logger="physrel.maxent"):
        prepared = prepare(spec, DataPaths.from_dir(tmp_path))
        infer(prepared, BuildConfig(), BPConfig())
    warnings = [r.getMessage() for r in caplog.records if "embedding" in r.getMessage()]
    assert len(warnings) == 2
    # Each batch lists each word once with its lookup count; the second holds every pair of the graph.
    for pairs, warning in zip((prepared.dataset.pairs_in("seed"), prepared.dataset.pairs), warnings):
        occurrences = [it.x for it in pairs] + [it.y for it in pairs]
        listed = ", ".join(f"'{o}' x{occurrences.count(o)}" for o in dict.fromkeys(occurrences) if o in removed)
        assert warning == f"no object embedding for {listed}; substituting zeros"
    assert all(f"'{o}'" in warnings[1] for o in removed)


# -- ablations --


def test_toggle_switch_kinds_and_classes():
    cfg = BuildConfig()
    no_selpref = toggle_switch(cfg, "selpref")
    assert "selpref" not in no_selpref.enabled_factor_kinds
    assert toggle_switch(no_selpref, "selpref") == cfg
    assert toggle_switch(cfg, "frame_seeds").seed_frames is False
    assert toggle_switch(cfg, "object_embeddings").emb_objects is False
    assert toggle_switch(cfg, None) == cfg
    with pytest.raises(ValueError):
        toggle_switch(cfg, "gravity")


def test_run_ablation_identity_switch_identical_reports(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="5", eval_split="dev")
    result = run_ablation(spec, BuildConfig(), None, BPConfig(), world.paths)
    assert result.full.to_tsv() == result.ablated.to_tsv()
    assert result.delta == 0.0


def test_run_ablation_selpref_hurts_on_synthetic_world(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="dev")
    result = run_ablation(spec, BuildConfig(), "selpref", BPConfig(), world.paths)
    assert result.ablated.overall < result.full.overall


def test_ablation_on_size_only_label_files_stays_on_size(world, tmp_path):
    # A single-attribute run is a label file with that attribute's rows only.
    paths = size_only_copies(world.paths, tmp_path)
    spec = TaskSpec(task="frames", cross_seed_fraction="5", eval_split="dev")
    result = run_ablation(spec, BuildConfig(), "selpref", BPConfig(), paths)
    for report in (result.full, result.ablated):
        assert list(report.per_attribute) == ["size"]
        assert report.counts == {a.value: report.counts["size"] if a is SIZE else 0 for a in ATTRIBUTES}
        assert report.counts["size"] > 0
    built = build_graph(prepare(spec, paths), BuildConfig())
    assert {built.graph.node_of(v).attribute for v in range(built.graph.n_variables)} == {SIZE}
    assert "attrsim" not in built.report and built.report["selpref"] > 0


# -- tuning --


def test_tune_singleton_grid_returns_it(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="5")
    cfg = BuildConfig(obj_sim_threshold=0.83)
    result = tune_thresholds(spec, [cfg], world.paths, BPConfig())
    assert result.best == cfg
    assert len(result.table) == 1


def test_tune_prefers_dominating_config(world):
    spec = TaskSpec(task="objects", cross_seed_fraction="20")
    good = BuildConfig()
    bad = BuildConfig(enabled_factor_kinds=frozenset({"seed"}))  # dev nodes get no signal
    result = tune_thresholds(spec, [bad, good], world.paths, BPConfig())
    assert result.best == good
    assert result.best_score > 0.8


def test_tune_scores_a_config_listed_twice_once(world, monkeypatch):
    scored = []

    def counting_infer(prepared, cfg, bp_cfg):
        scored.append(cfg)
        return infer(prepared, cfg, bp_cfg)

    monkeypatch.setattr(harness, "infer", counting_infer)
    spec = TaskSpec(task="objects", cross_seed_fraction="5")
    # 0.7 is the default; an int threshold equals its float, and so must their texts.
    grid = [BuildConfig(), *(BuildConfig(obj_sim_threshold=t) for t in (0.7, 1, 1.0))]
    result = tune_thresholds(spec, grid, world.paths, BPConfig())
    assert scored == [BuildConfig(), BuildConfig(obj_sim_threshold=1)]
    assert [text for text, _ in result.table] == [cfg.to_text() for cfg in scored]


def test_tune_empty_grid_rejected(world):
    with pytest.raises(ValueError):
        tune_thresholds(TaskSpec(), [], world.paths, BPConfig())


def test_tune_rejects_threshold_that_adds_harmful_factor(tmp_path):
    # Hand-built world with a known optimum. The dev pair (m, z) has gold GT;
    # with a permissive similarity threshold, b ~ z links (b, m) and (m, z)
    # on opposite sides of comparator m, pushing (m, z) toward the flip of
    # the seeded GT, which is wrong. The strict threshold adds nothing and
    # the factorless dev node decides GT correctly.
    (tmp_path / "frames_5.tsv").write_text("")
    (tmp_path / "frames_20.tsv").write_text("")
    pair_rows = "b\tm\tsize\t>\tseed\nm\tz\tsize\t>\tdev\n"
    (tmp_path / "pairs_5.tsv").write_text(pair_rows)
    (tmp_path / "pairs_20.tsv").write_text(pair_rows)
    (tmp_path / "embeddings_verbs.txt").write_text("")
    b_vec = " ".join(["1.0"] + ["0.0"] * 49)
    z_vec = " ".join(["0.9", "0.1"] + ["0.0"] * 48)  # cosine(b, z) ~ 0.994
    m_vec = " ".join(["0.0", "0.0", "1.0"] + ["0.0"] * 47)
    (tmp_path / "embeddings_objects.txt").write_text(f"b {b_vec}\nz {z_vec}\nm {m_vec}\n")
    (tmp_path / "cooccurrence.tsv").write_text("")

    kinds = frozenset({"seed", "objsim"})
    harmful = BuildConfig(enabled_factor_kinds=kinds, obj_sim_threshold=0.5)
    safe = BuildConfig(enabled_factor_kinds=kinds, obj_sim_threshold=0.999)
    spec = TaskSpec(task="objects", cross_seed_fraction="5", eval_split="dev")
    result = tune_thresholds(spec, [harmful, safe], DataPaths.from_dir(tmp_path), BPConfig())
    assert result.best == safe
    assert result.best_score == 1.0
    scores = dict(result.table)
    assert scores[harmful.to_text()] == 0.0


# -- shared preparation --


def test_tune_and_ablation_train_classifiers_once(world, monkeypatch):
    calls = []

    def counting_train_models(*args, **kwargs):
        calls.append(args)
        return train_models(*args, **kwargs)

    monkeypatch.setattr(harness, "train_models", counting_train_models)
    spec = TaskSpec(task="objects", cross_seed_fraction="5")
    tune_thresholds(spec, [BuildConfig(), BuildConfig(obj_sim_threshold=0.7)], world.paths, BPConfig())
    assert len(calls) == 1
    run_ablation(spec, BuildConfig(), "selpref", BPConfig(), world.paths)
    assert len(calls) == 2
    # A config without classifier factors never trains them.
    build_graph(prepare(spec, world.paths), BuildConfig(enabled_factor_kinds=frozenset({"seed", "objsim"})))
    assert len(calls) == 2


# -- output files and CLI --


def test_cli_subcommands(world, tmp_path):
    from physrel.cli import main

    data = str(world.paths.frames_5.parent)
    out = tmp_path / "cli"
    assert main(["train", "--data-dir", data, "--out-dir", str(out / "train")]) == 0
    assert (out / "train" / "maxent_size_frame.txt").exists()
    assert main(["build", "--data-dir", data, "--out-dir", str(out / "build"), "--task", "objects"]) == 0
    assert (out / "build" / "graph.txt").exists()
    assert main(["infer", "--data-dir", data, "--out-dir", str(out / "infer"), "--task", "objects"]) == 0
    assert (out / "infer" / "marginals.tsv").exists()
    assert main([
        "eval", "--data-dir", data, "--out-dir", str(out / "eval"), "--task", "objects",
        "--cross", "20", "--eval-split", "test",
    ]) == 0
    report = json.loads((out / "eval" / "report.json").read_text())
    assert report["overall"] > 0.8
    assert main([
        "eval", "--data-dir", data, "--out-dir", str(out / "evalr"), "--algorithm", "random",
        "--task", "objects", "--resamples", "50",
    ]) == 0
    assert main([
        "ablate", "--data-dir", data, "--out-dir", str(out / "ablate"), "--task", "objects",
        "--component", "selpref",
    ]) == 0
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"obj_sim_threshold": 0.7}, {"obj_sim_threshold": 0.9}]))
    assert main([
        "tune", "--data-dir", data, "--out-dir", str(out / "tune"), "--task", "objects",
        "--grid", str(grid),
    ]) == 0
    cfg_path = out / "tune" / "best_config.cfg"
    assert cfg_path.exists()
    # The tuned config file feeds straight back into eval via --config.
    assert main([
        "eval", "--data-dir", data, "--out-dir", str(out / "eval2"), "--task", "objects",
        "--config", str(cfg_path),
    ]) == 0


def test_cli_build_and_train_match_the_library(world, tmp_path):
    from physrel.cli import main

    data = str(world.paths.frames_5.parent)
    spec = TaskSpec(task="objects")
    common = ["--data-dir", data, "--task", "objects"]
    assert main(["build", *common, "--out-dir", str(tmp_path / "build")]) == 0
    result = run_task(spec, BuildConfig(), BPConfig(), world.paths)
    assert (tmp_path / "build" / "graph.txt").read_text(encoding="utf-8") == dump_graph(result.build.graph)
    assert (tmp_path / "build" / "build_report.tsv").read_text(encoding="utf-8") == result.build.report_tsv()

    assert main(["train", *common, "--out-dir", str(tmp_path / "train")]) == 0
    models = prepare(spec, world.paths).models.models
    assert len(list((tmp_path / "train").iterdir())) == len(models)
    for (attribute, node_class), model in models.items():
        saved = load_model((tmp_path / "train" / f"maxent_{attribute.value}_{node_class}.txt").read_text())
        assert np.array_equal(saved.weights, model.weights)
        assert np.array_equal(saved.bias, model.bias)


def test_cli_bp_defaults_come_from_bp_config(world, tmp_path, capsys):
    import argparse

    from physrel.cli import _add_bp, _bp_cfg, main

    parser = argparse.ArgumentParser()
    _add_bp(parser)
    assert _bp_cfg(parser.parse_args([])) == BPConfig()

    out = tmp_path / "infer"
    assert main(["infer", "--data-dir", str(world.paths.frames_5.parent), "--out-dir", str(out), "--task", "objects"]) == 0
    report = json.loads((out / "report.json").read_text())
    expected = f"converged={report['converged']} iterations={report['iterations']} residual={report['residual']!r}"
    assert capsys.readouterr().out.strip() == expected


def test_cli_error_exits_nonzero(tmp_path):
    from physrel.cli import main

    assert main(["eval", "--data-dir", str(tmp_path / "missing")]) == 1


def test_frame_with_only_zero_counts_fails_at_load(world, tmp_path):
    """Zeroing every co-occurrence row of one frame used to load, and then
    crash build inside pmi ("zero marginal count"); now the loader names the
    first zero row."""
    source = world.paths.cooccurrence.parent
    for path in source.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    cooc = tmp_path / "cooccurrence.tsv"
    lines = cooc.read_text(encoding="utf-8").splitlines()
    frame_key = lines[-1].split("\t")[0]
    first = None
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if fields[0] == frame_key:
            lines[i] = "\t".join(fields[:3] + ["0"])
            first = first or i + 1
    cooc.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"cooccurrence\.tsv: line {first}: count 0 is below 1"):
        prepare(TaskSpec("frames", "5", "dev"), DataPaths.from_dir(tmp_path))
