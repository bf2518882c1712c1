"""The benchmark's workloads: the fixed work of one op and the check of its output.

Every op calls the library through module attributes (``harness.run_task``,
``cli.main``, ``factorgraph.load_graph``) so that the tracer's wrappers see it.
Checks run outside the timed section and call nothing the tracer counts.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from physrel import cli, factorgraph, harness
from physrel.builder import FACTOR_KINDS, BuildConfig
from physrel.core import ATTRIBUTES
from physrel.factorgraph import BPConfig
from physrel.harness import DataPaths, TaskSpec

# The object task with the 20% cross-domain seed, scored on test: on the
# paper world this reproduces the ROADMAP's paper-scale graph (12,124
# variables, 192,014 factors at seed 0).
SPEC = TaskSpec("objects", "20", "test")
PAPER_WORLD = {"n_objects": 200, "n_verbs": 300, "n_pairs": 3600}
# Stands in for the paper world in the smoke check of the benchmark itself.
TINY_WORLD = {"n_objects": 60, "n_verbs": 20, "n_pairs": 900}

# The acceptance suite's synthetic-world accuracy floor; it holds on every
# seed of the paper world (thousands of scored relations).
PAPER_FLOOR = 0.90
SUM_TOLERANCE = 1e-9


@dataclass
class Context:
    world_dir: Path
    out_dir: Path
    paths: DataPaths
    _gold: object = None

    def gold_dataset(self):
        """Seed plus test items with every label readable, for scoring checks."""
        if self._gold is None:
            dataset = harness.assemble_task_dataset(self.paths, SPEC)
            self._gold = dataset.restrict({"seed", SPEC.eval_split}, {"seed", SPEC.eval_split})
        return self._gold


@dataclass
class Outcome:
    accuracy: float = float("nan")
    converged: list[bool] = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # must repeat exactly for the same code and seed
    digest: str = ""  # of the op's outputs; must repeat exactly too
    errors: list[str] = field(default_factory=list)


def marginal_errors(marginals, label: str) -> list[str]:
    m = np.asarray(marginals, dtype=float)
    errors = []
    if m.ndim != 2 or m.shape[1] != 3 or m.shape[0] == 0:
        return [f"{label}: marginals have shape {m.shape}"]
    if not np.isfinite(m).all():
        errors.append(f"{label}: non-finite marginal")
    elif not (m > 0).all():
        errors.append(f"{label}: non-positive marginal")
    worst = float(np.abs(m.sum(axis=1) - 1.0).max())
    if not worst <= SUM_TOLERANCE:
        errors.append(f"{label}: a marginal row sums to 1 {worst:+.3g}")
    return errors


def macro_accuracy(dataset, belief_of) -> float:
    """Mean over attributes of test-pair accuracy, argmax ties to the first value."""
    per_attribute = []
    for attribute in ATTRIBUTES:
        hits = total = 0
        for item in dataset.pairs_in(SPEC.eval_split):
            if dataset.has_label(item, attribute):
                total += 1
                hits += int(np.argmax(belief_of(item.node(attribute)))) == int(dataset.gold(item, attribute))
        if total:
            per_attribute.append(hits / total)
    return float(np.mean(per_attribute))


def floor_errors(accuracy: float, floor: float) -> list[str]:
    return [] if accuracy >= floor else [f"accuracy {accuracy:.4f} below {floor}"]


class PaperInfer:
    """One full run_task on the paper world: train, build, BP, score."""

    world, tiny_world = PAPER_WORLD, TINY_WORLD

    def run(self, ctx: Context):
        return harness.run_task(SPEC, BuildConfig(), BPConfig(), ctx.paths)

    def check(self, ctx: Context, result) -> Outcome:
        marginals = result.bp.marginals
        errors = marginal_errors(marginals, "run_task")
        accuracy = result.report.overall
        rescored = macro_accuracy(ctx.gold_dataset(), result.beliefs.__getitem__)
        if abs(rescored - accuracy) > 1e-12:
            errors.append(f"report overall {accuracy!r} but marginals score {rescored!r}")
        counts = {"variables": result.build.graph.n_variables, "bp.iterations": result.bp.iterations}
        counts.update({f"factors.{kind}": result.build.report.get(kind, 0) for kind in FACTOR_KINDS})
        return Outcome(
            accuracy=accuracy,
            converged=[bool(result.bp.converged)],
            counts=counts,
            digest=hashlib.sha256(np.ascontiguousarray(marginals).tobytes()).hexdigest(),
            errors=errors + floor_errors(accuracy, PAPER_FLOOR),
        )


class PaperBuildDump:
    """The CLI's build command (train, build, write graph.txt), then load_graph on that file."""

    world, tiny_world = PAPER_WORLD, TINY_WORLD

    def run(self, ctx: Context):
        argv = [
            "build", "--data-dir", str(ctx.world_dir), "--out-dir", str(ctx.out_dir),
            "--task", SPEC.task, "--cross", SPEC.cross_seed_fraction, "--eval-split", SPEC.eval_split,
        ]  # fmt: skip
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status = cli.main(argv)
        text = (ctx.out_dir / "graph.txt").read_text(encoding="utf-8")
        graph = factorgraph.load_graph(text)
        return status, printed.getvalue(), text, graph

    def check(self, ctx: Context, output) -> Outcome:
        status, printed, text, graph = output
        if status != 0:
            return Outcome(errors=[f"physrel build exited {status}"])
        errors = []
        if factorgraph.dump_graph(graph) != text:
            errors.append("dump_graph(load_graph(graph.txt)) differs from graph.txt")

        # Counts and unary evidence straight from the dump format.
        var_of: dict[str, int] = {}
        kinds: Counter = Counter()
        unary: list[tuple[int, list[float]]] = []
        for line in text.splitlines():
            parts = line.split("\t")
            if parts[0] == "var":
                var_of[parts[2]] = int(parts[1])
            else:
                kinds[parts[2]] += 1
                if "," not in parts[3]:
                    unary.append((int(parts[3]), [float(x) for x in parts[4].split()]))
        report = (ctx.out_dir / "build_report.tsv").read_text(encoding="utf-8")
        if printed != report:
            errors.append("printed build report differs from build_report.tsv")
        per_kind = {kind: kinds.get(kind, 0) for kind in FACTOR_KINDS}
        reported = {key: int(n) for key, n in (line.split("\t") for line in report.splitlines())}
        if reported != {"variables": len(var_of), **per_kind} or graph.n_variables != len(var_of):
            errors.append("counts differ between graph.txt, load_graph and build_report.tsv")
        counts = {"variables": len(var_of), **{f"factors.{kind}": n for kind, n in per_kind.items()}}

        # Accuracy of the unary evidence alone (seed and classifier factors),
        # read back from the reloaded graph: there is no BP in this workload.
        log_belief = np.zeros((len(var_of), 3))
        for vid, table in unary:
            log_belief[vid] += np.log(table)
        belief = np.exp(log_belief - log_belief.max(axis=1, keepdims=True))
        belief /= belief.sum(axis=1, keepdims=True)
        errors += marginal_errors(belief, "unary evidence")
        accuracy = macro_accuracy(ctx.gold_dataset(), lambda node: belief[var_of[node.key]])
        return Outcome(
            accuracy=accuracy,
            counts=counts,
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            errors=errors + floor_errors(accuracy, PAPER_FLOOR),
        )


WORKLOADS = {"paper-infer": PaperInfer(), "paper-build-dump": PaperBuildDump()}
