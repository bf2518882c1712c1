"""The CLI: which files each subcommand writes, that the files two
subcommands share are written the same way by both, and tuning grid files."""
import json
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import physrel
from physrel.builder import BuildConfig
from physrel.cli import WRITE_SLICE, _default_grid, _grid_from_file, main, write_outputs
from physrel.core import ATTRIBUTES
from physrel.harness import TaskSpec, assemble_task_dataset, load_world
from physrel.maxent import save_model
from conftest import one_descent_per_model

# One flag set for every model run, so their shared files must agree.
TASK = ["--task", "objects", "--cross", "20", "--eval-split", "test"]

RUNS = {
    "train": ["train", *TASK],
    "build": ["build", *TASK],
    "infer": ["infer", *TASK],
    "eval": ["eval", *TASK],
    "eval-random": ["eval", *TASK, "--algorithm", "random", "--resamples", "5"],
    "eval-majority": ["eval", *TASK, "--algorithm", "majority"],
    "eval-emb-maxent": ["eval", *TASK, "--algorithm", "emb-maxent"],
    "ablate": ["ablate", *TASK, "--component", "selpref"],
    "tune": ["tune", *TASK],
    "tune-grid": ["tune", *TASK, "--grid", "GRID"],
}

REPORT = {"report.tsv", "report.json"}
RUN = REPORT | {"build_report.tsv", "predictions.tsv"}
FILES = {
    "train": {f"maxent_{a.value}_{c}.txt" for a in ATTRIBUTES for c in ("frame", "object-pair")},
    "build": {"graph.txt", "build_report.tsv"},
    "infer": RUN | {"graph.txt", "marginals.tsv", "timings.json"},
    "eval": RUN,
    "eval-random": REPORT,
    "eval-majority": REPORT,
    "eval-emb-maxent": REPORT,
    "ablate": {"ablation_full.tsv", "ablation_toggled.tsv", "ablation.json"},
    "tune": {"best_config.cfg", "tune_table.txt"},
    "tune-grid": {"best_config.cfg", "tune_table.txt"},
}


@pytest.fixture(scope="module")
def outputs(world, tmp_path_factory):
    """Each run's out dir, every subcommand run once on the synthetic world."""
    root = tmp_path_factory.mktemp("cli")
    grid = root / "grid.json"
    grid.write_text(json.dumps([{"obj_sim_threshold": 0.7}, {"obj_sim_threshold": 0.9}]), encoding="utf-8")
    data = str(world.paths.frames_5.parent)
    dirs = {}
    for name, argv in RUNS.items():
        dirs[name] = root / name
        argv = [str(grid) if arg == "GRID" else arg for arg in argv]
        assert main([*argv, "--data-dir", data, "--out-dir", str(dirs[name])]) == 0, name
    return dirs


def read(directory, name: str) -> str:
    return (directory / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_each_subcommand_writes_exactly_its_files(outputs, run):
    assert {path.name for path in outputs[run].iterdir()} == FILES[run]


def test_files_shared_between_subcommands_agree(outputs):
    for name in ("graph.txt", "build_report.tsv"):
        assert read(outputs["build"], name) == read(outputs["infer"], name), name
    for name in ("report.tsv", "report.json", "predictions.tsv", "build_report.tsv"):
        assert read(outputs["infer"], name) == read(outputs["eval"], name), name
    assert read(outputs["ablate"], "ablation_full.tsv") == read(outputs["eval"], "report.tsv")


def test_train_writes_the_models_one_descent_each_gives(outputs, world):
    dataset = assemble_task_dataset(world.paths, TaskSpec("objects", "20", "test"))
    emb, _ = load_world(world.paths)
    for (attribute, node_class), model in one_descent_per_model(dataset, emb).items():
        assert read(outputs["train"], f"maxent_{attribute.value}_{node_class}.txt") == save_model(model)


def test_marginals_follow_the_graph_variables_in_order(outputs):
    graph = read(outputs["infer"], "graph.txt").splitlines()
    graph_vars = [line.split("\t")[2] for line in graph if line.startswith("var\t")]
    rows = read(outputs["infer"], "marginals.tsv").splitlines()
    assert rows[0] == "node\tp_gt\tp_eq\tp_lt"
    assert [row.split("\t")[0] for row in rows[1:]] == graph_vars


def test_predictions_have_a_header_and_one_row_per_scored_relation(outputs):
    rows = read(outputs["eval"], "predictions.tsv").splitlines()
    assert rows[0] == "node\tgold\tpredicted\tp_gt\tp_eq\tp_lt"
    assert len(rows) - 1 == sum(json.loads(read(outputs["eval"], "report.json"))["counts"].values())


def test_tune_table_lists_each_distinct_default_config_once(outputs):
    # The default grid holds BuildConfig() twice (obj_sim_threshold 0.7 is the default).
    distinct = {cfg.to_text() for cfg in _default_grid()}
    table = read(outputs["tune"], "tune_table.txt")
    assert len(distinct) == 5 < len(_default_grid())
    assert table.count("# dev_overall=") == len(distinct)


def test_write_outputs_writes_a_slice_at_a_time(tmp_path):
    # Writing a graph dump holds about one slice of it, not a whole encoded copy.
    text = "factor\t0\tk\t0,1\t0.7 0.1 0.2 0.15 0.7 0.15 0.2 0.1 0.7\n" * 200_000
    assert len(text) >= 8 * 2**20
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_outputs(tmp_path / "sliced", {"graph.txt": text})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 3 * 2**20
    # The bytes are those of one write_text call, for text outside ASCII too,
    # and for a text given as pieces: longer than a slice, empty, or with
    # characters outside ASCII and "\r\n".
    other = "var\t0\t\u00e9\u20ac\U0001f600\r\n" * 300_000
    cut = WRITE_SLICE + 7
    pieces = ["", text[:cut], "", "\u00e9\r\n\U0001f600", text[cut:], "", other[: 2 * WRITE_SLICE + 1], ""]
    files = {"other.txt": other, "pieces.txt": (p for p in pieces), "listed.txt": pieces[3:6], "empty.txt": []}
    write_outputs(tmp_path / "sliced", files)
    joined = {"pieces.txt": "".join(pieces), "listed.txt": "".join(pieces[3:6]), "empty.txt": ""}
    for name, whole in (("graph.txt", text), ("other.txt", other), *joined.items()):
        (tmp_path / name).write_text(whole, encoding="utf-8")
        assert (tmp_path / "sliced" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("command", ["train", "tune"])
def test_config_is_rejected_where_no_build_config_is_read(tmp_path, command):
    argv = [command, "--data-dir", str(tmp_path), "--out-dir", str(tmp_path / "out"), "--config", "/no/such.cfg"]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert not (tmp_path / "out").exists()


def test_bp_flags_are_rejected_where_bp_does_not_run(world, tmp_path, capsys):
    data = str(world.paths.frames_5.parent)
    with pytest.raises(SystemExit) as exited:
        main(["build", "--data-dir", data, "--out-dir", str(tmp_path / "build"), "--bp-damping", "0.5"])
    assert exited.value.code == 2
    assert not (tmp_path / "build").exists()
    # Baselines run no BP, but their BP flags are still checked before any work.
    out = tmp_path / "eval"
    argv = ["eval", "--algorithm", "majority", "--data-dir", data, "--out-dir", str(out), "--bp-damping", "5"]
    assert main(argv) == 1
    assert "damping must lie in [0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "eval", "ablate", "tune"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_a_bp_eps_that_is_not_finite_fails_before_any_work(world, tmp_path, capsys, command, eps):
    # With a nan eps BP would run to the cap without saying so.
    out = tmp_path / "out"
    argv = [command, *TASK, "--data-dir", str(world.paths.frames_5.parent), "--out-dir", str(out), "--bp-eps", eps]
    assert main(argv + (["--component", "selpref"] if command == "ablate" else [])) == 1
    assert "convergence_eps must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_a_huge_embedding_value_fails_in_training_and_says_where(world, tmp_path, capsys):
    # 1e308 is finite, so the file loads; o01 is in a seed pair, and the
    # descent overflows to weights that are not finite.
    data = tmp_path / "world"
    shutil.copytree(world.paths.frames_5.parent, data)
    rows = (data / "embeddings_objects.txt").read_text().splitlines(keepends=True)
    index = next(i for i, row in enumerate(rows) if row.startswith("o01 "))
    word, _, *values = rows[index].split(" ")
    rows[index] = " ".join([word, "1e308", *values])
    (data / "embeddings_objects.txt").write_text("".join(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["infer", *TASK, "--data-dir", str(data), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: training diverged for attribute(s) size, weight, strength, rigidness, speed of node class "
        "object-pair: weights not finite\n"
    )


@pytest.mark.parametrize("command", ["train", "build", "infer"])
def test_a_negative_rng_seed_fails_before_any_work(tmp_path, capsys, command):
    # The data directory does not exist: the seed is checked before anything is read.
    out = tmp_path / "out"
    argv = [command, "--data-dir", str(tmp_path / "missing"), "--out-dir", str(out), "--rng-seed", "-1"]
    assert main(argv) == 1
    assert "rng_seed must be an int >= 0, not -1" in capsys.readouterr().err
    assert not out.exists()


def test_an_unregistered_frame_type_is_named_with_its_file_and_line(world, tmp_path, capsys):
    data = shutil.copytree(world.paths.frames_5.parent, tmp_path / "data")
    frames = data / "frames_5.tsv"
    line = frames.read_text().count("\n") + 1
    with frames.open("a") as f:
        f.write("think\tccomp\t-\tsize\t>\tseed\n")
    assert main(["eval", "--data-dir", str(data), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"frames_5.tsv: line {line}: unregistered frame type 'ccomp'\n" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["model", "random", "majority", "emb-maxent"])
@pytest.mark.parametrize(
    "flag, message", [("--rng-seed", "rng_seed must be an int >= 0, not -1"), ("--resamples", "resamples must be >= 1")]
)
def test_eval_checks_seed_and_resamples_before_any_work(tmp_path, capsys, algorithm, flag, message):
    # The data directory does not exist: both flags are checked, whichever
    # algorithm runs, before anything is read.
    out = tmp_path / "out"
    argv = ["eval", "--algorithm", algorithm, "--data-dir", str(tmp_path / "missing"), "--out-dir", str(out)]
    assert main(argv + [flag, "-1"]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ([{}, {"seed_frames": "false", "min_shared_seed_frames": 2.5}], "entry 1: expected true or false"),
        ([{"min_shared_seed_frames": 2.5}], "entry 0: invalid literal for int"),
        ([{"obj_sim_threshold": "0.7"}], "entry 0: could not convert"),
        ([{"mystery": 1}], "entry 0: unknown config key 'mystery'"),
        ([{"enabled_factor_kinds": ["seed", "bogus"]}], "entry 0: unknown factor kinds"),
        ([{"pmi_threshold": float("nan")}], "entry 0: pmi_threshold must be finite"),
        ([["seed"]], "entry 0: expected a JSON object"),
        ({"seed_frames": False}, "expected a JSON list"),
        ("[{", "Expecting property name"),
    ],
)
def test_grid_file_names_the_file_and_the_bad_entry(tmp_path, grid, message):
    path = tmp_path / "grid.json"
    path.write_text(grid if isinstance(grid, str) else json.dumps(grid), encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
        _grid_from_file(path)


def test_grid_values_parse_as_in_config_files(tmp_path):
    path = tmp_path / "grid.json"
    entries = [
        {"seed_frames": False, "emb_objects": True, "enabled_factor_kinds": ["seed", "emb"]},
        {"min_shared_seed_frames": 3, "obj_sim_threshold": 1},
        {},
    ]
    path.write_text(json.dumps(entries), encoding="utf-8")
    assert _grid_from_file(path) == [
        BuildConfig(seed_frames=False, enabled_factor_kinds=frozenset({"seed", "emb"})),
        BuildConfig(min_shared_seed_frames=3, obj_sim_threshold=1.0),
        BuildConfig(),
    ]


def test_imports_leave_the_cli_and_scipy_unloaded():
    # Importing the package must not load the CLI module, or ``python -m
    # physrel.cli`` runs it twice; scipy is needed only by the tests.
    code = (
        f"import sys; sys.path.insert(0, {str(Path(physrel.__file__).parents[1])!r}); import physrel; "
        "print('physrel.cli' in sys.modules); import physrel.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.split("\n")[:2] == ["False", "[]"]


def test_default_grid_configs_round_trip_through_their_text(tmp_path):
    for index, cfg in enumerate(_default_grid()):
        path = tmp_path / f"{index}.cfg"
        path.write_text(cfg.to_text(), encoding="utf-8")
        assert BuildConfig.from_file(path) == cfg
