"""Golden guard: run_task on the synthetic world reproduces pinned outputs.

Pins, per task spec at the default build config and ``BPConfig(damping=0.5)``
(the BP config the file was recorded with): the sha256 of the graph dump, the
per-kind factor counts, the BP iteration count and every marginal (within
1e-12). The default, undamped BP config must reach the same fixed point.
Regenerate ``golden_run_task.json`` only for a change that is meant to alter
these outputs:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from physrel.builder import BuildConfig
from physrel.factorgraph import BPConfig, dump_graph
from physrel.harness import TaskSpec, infer, prepare, run_task

GOLDEN = Path(__file__).with_name("golden_run_task.json")
SPECS = (TaskSpec("frames", "5", "dev"), TaskSpec("objects", "20", "test"))


def spec_name(spec: TaskSpec) -> str:
    return f"{spec.task}-{spec.cross_seed_fraction}-{spec.eval_split}"


def snapshot(spec: TaskSpec, paths) -> dict:
    result = run_task(spec, BuildConfig(), BPConfig(damping=0.5), paths)
    return {
        "graph_sha256": hashlib.sha256(dump_graph(result.build.graph).encode("utf-8")).hexdigest(),
        "report": dict(sorted(result.build.report.items())),
        "iterations": result.bp.iterations,
        "marginals": result.bp.marginals.tolist(),
    }


@pytest.mark.parametrize("spec", SPECS, ids=spec_name)
def test_run_task_matches_golden(world, spec):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[spec_name(spec)]
    got = snapshot(spec, world.paths)
    assert got["graph_sha256"] == golden["graph_sha256"]
    assert got["report"] == golden["report"]
    assert got["iterations"] == golden["iterations"]
    marginals, expected = np.array(got["marginals"]), np.array(golden["marginals"])
    assert marginals.shape == expected.shape
    assert np.abs(marginals - expected).max() <= 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=spec_name)
def test_default_bp_reaches_the_golden_fixed_point(world, spec):
    expected = np.array(json.loads(GOLDEN.read_text(encoding="utf-8"))[spec_name(spec)]["marginals"])
    prepared = prepare(spec, world.paths)
    damped = infer(prepared, BuildConfig(), BPConfig(damping=0.5))
    default = infer(prepared, BuildConfig(), BPConfig())
    assert default.bp.converged
    assert default.report.per_attribute == damped.report.per_attribute
    assert np.abs(default.bp.marginals - expected).max() <= 1e-5


if __name__ == "__main__":
    from physrel.synthetic import generate_world

    with tempfile.TemporaryDirectory() as directory:
        paths = generate_world(Path(directory), rng_seed=0).paths
        payload = {spec_name(spec): snapshot(spec, paths) for spec in SPECS}
    # One marginal row per line: collapse the innermost lists.
    text = re.sub(r"\[\s+([^\[\]]+?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", json.dumps(payload, indent=1))
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
