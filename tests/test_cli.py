"""The CLI: which files each subcommand writes, that the files two
subcommands share are written the same way by both, and tuning grid files."""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import physrel
from physrel.builder import BuildConfig
from physrel.cli import _default_grid, _grid_from_file, main
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
