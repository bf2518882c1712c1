"""Per-layer tracing for the benchmark, installed from outside the library.

Wrappers replace the module attributes the pipeline calls through (for
example ``harness.build`` or ``FactorGraph.add_factor``), so the library runs
unmodified. Calls made a few times per op become spans (name, start, end,
parent, run id) kept in memory. Calls made 10^5 times per op (``cosine``,
``add_factor``, ``predict_proba``, ...) are only aggregated into a call count
and total time: one span each would cost more than the call itself.

Every wrapped call, span or aggregate, charges its duration to the enclosing
call, so a name's self time is its duration minus what its wrapped callees
took. Self times of all names under an op add up to the op's wall time minus
the benchmark's own code between calls.
"""
from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

from physrel import builder, cli, factorgraph, harness

# Bytes of the two float64 message arrays (variable-to-factor and
# factor-to-variable) that run_bp rewrites each iteration: per binary
# factor, 2 slots x 3 values x 8 bytes, twice.
MSG_BYTES_PER_BINARY_FACTOR = 2 * 2 * 3 * 8
# Spans that enclose a whole op or pipeline: their self time is whatever no
# layer wrapper saw, so it does not count towards trace.coverage.
ENCLOSING = ("op", "harness.run_task", "cli.main")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: str


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        # name -> [calls, total seconds, self seconds]
        self.cells: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        # Open calls, innermost last; item 0 of each frame accumulates the
        # time spent in wrapped callees.
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._binary_factors: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._last_graph = lambda: None
        self._last_binary = [0]

    def _span(self, name: str, fn, after):
        """Wrapper that records one span per call."""
        cell, stack, spans = self.cells[name], self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(spans)]
            span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
            spans.append(span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                duration = span.end - span.start
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _aggregate(self, name: str, fn, after):
        """Wrapper for calls made 10^5 times per op: count and time only."""
        cell, stack, clock = self.cells[name], self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[0]
                stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` as a span of its own (the benchmark's op)."""
        return self._span(name, fn, None)(*args)

    def patch(self, owner, attr: str, name: str, *, hot: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper; absent attributes are skipped."""
        fn = owner.__dict__.get(attr)
        if fn is None:
            return
        self._patches.append((owner, attr, fn))
        wrapper = (self._aggregate if hot else self._span)(name, fn, after)
        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    # -- the pipeline's call sites --

    def install(self) -> None:
        for loader in ("load_dataset", "load_embeddings", "load_cooccurrence"):
            self.patch(harness, loader, "lexstats.load")
        self.patch(builder, "cosine", "lexstats.cosine", hot=True)
        self.patch(builder, "pmi", "lexstats.pmi", hot=True)
        self.patch(builder, "train", "maxent.train")
        self.patch(builder, "predict_proba", "maxent.predict_proba", hot=True)
        self.patch(builder, "featurize_frame", "maxent.featurize", hot=True)
        self.patch(builder, "featurize_object_pair", "maxent.featurize", hot=True)
        for owner in (harness, cli):
            self.patch(owner, "train_models", "builder.train_models")
            self.patch(owner, "build", "builder.build", after=self._after_build)
        self.patch(builder, "add_seed_and_emb_factors", "builder.seed_emb")
        self.patch(builder, "add_selectional_preference_factors", "builder.selpref")
        self.patch(builder, "add_similarity_factors", "builder.similarity")
        self.patch(builder, "add_attribute_factors", "builder.attrsim")
        self.patch(builder.Build, "add_factor", "builder.add_factor", hot=True, after=self._after_build_add)
        self.patch(
            factorgraph.FactorGraph, "add_factor", "factorgraph.add_factor", hot=True, after=self._after_graph_add
        )
        self.patch(harness, "run_bp", "factorgraph.run_bp", after=self._after_bp)
        self.patch(cli, "dump_graph", "factorgraph.dump_graph", after=self._after_dump)
        self.patch(factorgraph, "load_graph", "factorgraph.load_graph")
        self.patch(harness, "run_task", "harness.run_task", after=self._after_run_task)
        self.patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- counts taken from arguments and results, outside the timed call --

    def _after_build(self, args, result) -> None:
        self.counts["builder.variables"] += result.graph.n_variables

    def _after_build_add(self, args, accepted) -> None:
        self.counts["builder.add_factor.attempts"] += 1
        if accepted:
            kind = args[3] if len(args) > 3 else "?"
            self.counts[f"builder.factors.{kind}"] += 1

    def _after_graph_add(self, args, fid) -> None:
        graph, scope = args[0], args[1]
        if len(scope) == 2:
            if self._last_graph() is not graph:
                self._last_graph = weakref.ref(graph)
                self._last_binary = self._binary_factors.setdefault(graph, [0])
            self._last_binary[0] += 1

    def _after_bp(self, args, result) -> None:
        self.counts["factorgraph.bp.iterations"] += result.iterations
        binary = self._binary_factors.get(args[0], [0])[0]
        self.counts["factorgraph.bp.msg_bytes"] += binary * MSG_BYTES_PER_BINARY_FACTOR * result.iterations

    def _after_dump(self, args, text) -> None:
        self.counts["factorgraph.dump_graph.bytes"] += len(text.encode("utf-8"))

    def _after_run_task(self, args, result) -> None:
        self.counts["harness.converged"] += bool(result.bp.converged)

    # -- results --

    def layer_metrics(self, n_ops: int, op_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics: totals over the run divided by the op count.

        ``op_wall_s`` is the run's median traced op time; untraced ``wall_s``
        subtracted from it is the tracing overhead.
        """
        per = 1.0 / n_ops
        cells = self.cells
        calls = lambda name: cells[name][0] * per if name in cells else 0.0  # noqa: E731
        secs = lambda name: cells[name][1] * per if name in cells else 0.0  # noqa: E731
        self_s = lambda name: cells[name][2] * per if name in cells else 0.0  # noqa: E731
        count = lambda name: self.counts.get(name, 0.0) * per  # noqa: E731

        bp_s = secs("factorgraph.run_bp")
        iterations = count("factorgraph.bp.iterations")
        attempts = count("builder.add_factor.attempts")
        accepted = sum(count(f"builder.factors.{kind}") for kind in builder.FACTOR_KINDS)
        run_tasks = calls("harness.run_task")
        layer_self = sum(cell[2] for name, cell in cells.items() if name not in ENCLOSING) * per

        m: dict[str, tuple[float, str]] = {
            "lexstats.load.calls": (calls("lexstats.load"), "count"),
            "lexstats.load.s": (secs("lexstats.load"), "s"),
            "lexstats.cosine.calls": (calls("lexstats.cosine"), "count"),
            "lexstats.cosine.s": (secs("lexstats.cosine"), "s"),
            "lexstats.pmi.calls": (calls("lexstats.pmi"), "count"),
            "maxent.train.calls": (calls("maxent.train"), "count"),
            "maxent.train.s": (secs("maxent.train"), "s"),
            "maxent.predict_proba.calls": (calls("maxent.predict_proba"), "count"),
            "maxent.predict_proba.s": (secs("maxent.predict_proba"), "s"),
            "maxent.featurize.s": (secs("maxent.featurize"), "s"),
            "builder.train_models.s": (secs("builder.train_models"), "s"),
            "builder.build.calls": (calls("builder.build"), "count"),
            "builder.build.s": (secs("builder.build"), "s"),
            "builder.seed_emb.s": (secs("builder.seed_emb"), "s"),
            "builder.selpref.s": (secs("builder.selpref"), "s"),
            "builder.similarity.s": (secs("builder.similarity"), "s"),
            "builder.attrsim.s": (secs("builder.attrsim"), "s"),
            "builder.variables": (count("builder.variables"), "count"),
        }
        for kind in builder.FACTOR_KINDS:
            m[f"builder.factors.{kind}"] = (count(f"builder.factors.{kind}"), "count")
        m.update(
            {
                "builder.add_factor.accept_ratio": (accepted / attempts if attempts else 0.0, "fraction"),
                "factorgraph.add_factor.calls": (calls("factorgraph.add_factor"), "count"),
                "factorgraph.add_factor.s": (secs("factorgraph.add_factor"), "s"),
                "factorgraph.run_bp.s": (bp_s, "s"),
                "factorgraph.bp.iterations": (iterations, "count"),
                "factorgraph.bp.ms_per_iter": (1000.0 * bp_s / iterations if iterations else 0.0, "ms"),
                "factorgraph.bp.msg_bytes_per_iter": (
                    count("factorgraph.bp.msg_bytes") / iterations if iterations else 0.0,
                    "B-computed",
                ),
                "factorgraph.dump_graph.s": (secs("factorgraph.dump_graph"), "s"),
                "factorgraph.dump_graph.bytes": (count("factorgraph.dump_graph.bytes"), "B"),
                "factorgraph.load_graph.s": (secs("factorgraph.load_graph"), "s"),
                "harness.run_task.calls": (run_tasks, "count"),
                "harness.run_task.s": (secs("harness.run_task"), "s"),
                "harness.self_s": (self_s("harness.run_task"), "s"),
                "harness.converged_frac": (
                    count("harness.converged") / run_tasks if run_tasks else 0.0,
                    "fraction",
                ),
                "cli.self_s": (self_s("cli.main"), "s"),
                "trace.wall_s": (op_wall_s, "s"),
                "trace.coverage": (layer_self / secs("op") if secs("op") else 0.0, "fraction"),
            }
        )
        return m

    def exact_counts(self) -> dict[str, float]:
        """Counts that must repeat exactly for the same code and inputs."""
        out = {name: self.counts[name] for name in sorted(self.counts) if name.startswith("builder.")}
        out["factorgraph.bp.iterations"] = self.counts.get("factorgraph.bp.iterations", 0)
        for name in ("harness.run_task", "lexstats.cosine", "maxent.train"):
            out[f"{name}.calls"] = self.cells[name][0] if name in self.cells else 0
        return out

    def dump_spans(self, path) -> None:
        rows = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run_id}
            for i, s in enumerate(self.spans)
        ]
        aggregates = {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in sorted(self.cells.items())
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "aggregates": aggregates}, handle)
