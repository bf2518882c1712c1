"""physrel benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload paper-infer --seed 0 --seconds 58 --trace 0

Workloads (see workloads.py and README.md): ``paper-infer`` and
``paper-build-dump``. Each is a closed loop with one
client: the next op starts when the previous one has finished and been
checked. Inputs are the world files ``physrel.synthetic.generate_world``
writes for ``--seed``.

Ops repeat while the loop of ops and their checks stays within
``--seconds`` (there is always at least one op). Each op's output is checked
outside the timed section; an op that raises, fails a check, or whose exact
counts or output digest drift from an earlier op of the same source tree on
the same world counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics: ``wall_s`` (median op time) and ``setup_s`` (median of
SETUP_REPEATS set-ups, each a fresh interpreter importing ``physrel`` plus one
``generate_world``), both scaled to a nominal host speed (see NOMINAL_REF_S),
``peak_rss_mb`` and ``accuracy``.
With ``--trace 1`` the same loop runs with per-layer wrappers installed from
tracing.py, and the object holds the per-layer metrics instead. The library
is imported from ``src/`` next to this directory; without it the benchmark
exits 2 and prints no result.
"""
import os
import sys
import time

# One process, one BLAS/OpenMP thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):  # fmt: skip
    os.environ[_var] = "1"
# Compile the library afresh in every run rather than write caches into src/.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
# Set-up is repeated SETUP_REPEATS times per run and the median reported:
# a single set-up's time moves by tens of percent from one to the next.
SETUP_REPEATS = 9
# A fresh interpreter importing the library from src/, without writing
# bytecode caches there.
IMPORT_CMD = [sys.executable, "-B", "-c", "import sys; sys.path.insert(0, 'src'); import physrel"]
# On shared hosts the CPU speed can change by up to 2x for minutes, so
# raw times from runs minutes apart are not comparable. A reference kernel
# is timed before every op and after the last one; the end-to-end times are
# reported in seconds at the host speed where that kernel takes
# NOMINAL_REF_S, i.e. scaled by NOMINAL_REF_S / (median kernel time).
NOMINAL_REF_S = 0.075
REF_SAMPLES = 12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper-infer", "paper-build-dump"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="paper workloads on a tiny world (smoke check of the benchmark only)")
    return parser.parse_args(argv)


def tree_digest(directory: Path, pattern: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob(pattern)):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def reference_kernel() -> None:
    """Fixed work of the kinds the library does: dict updates, small-matrix
    products and passes over large arrays."""
    import numpy as np

    tally: dict = {}
    for i in range(60000):
        tally[i % 1000] = tally.get(i % 1000, 0) + i * i
    x, w = np.full((64, 100), 0.01), np.full((3, 100), 0.02)
    for _ in range(1500):
        scores = x @ w.T
        np.exp(scores - scores.max(axis=1, keepdims=True))
    rows = np.full((200000, 3), 0.5)
    for _ in range(4):
        logs = np.log(rows)
        logs -= logs.max(axis=1, keepdims=True)


def time_reference(times: list) -> None:
    """Append the times of REF_SAMPLES calls of the reference kernel."""
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Ledger:
    """Exact counts and output digests per (workload, source tree, world files),
    kept across runs in the checkout so drift between runs of the same code on
    the same inputs shows."""

    def __init__(self, path: Path):
        self.path = path
        self.entry = json.loads(path.read_text()) if path.exists() else {}

    def drift(self, counts: dict, digest: str) -> list[str]:
        errors = [
            f"count {key} is {value} but was {self.entry[key]}"
            for key, value in counts.items()
            if key in self.entry and self.entry[key] != value
        ]
        if self.entry.get("digest", digest) != digest:
            errors.append("output digest differs from an earlier op of the same code and seed")
        # The first value seen stays the reference: a drifted op never replaces it.
        for key, value in {**counts, "digest": digest}.items():
            self.entry.setdefault(key, value)
        return errors

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.entry, sort_keys=True, indent=1))
        os.replace(tmp, self.path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "physrel" / "__init__.py").is_file():
        print(f"error: no physrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import physrel  # noqa: F401

    if not Path(physrel.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: physrel imported from {physrel.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import tracing
    import workloads
    from physrel.harness import DataPaths
    from physrel.synthetic import generate_world

    reference_kernel()  # first-touch allocation makes the first call slow
    workload = workloads.WORKLOADS[args.workload]
    world_kwargs = workload.tiny_world if args.tiny else workload.world
    run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    run_dir = WORK_DIR / f"run-{run_id}"
    try:
        # Set-up, SETUP_REPEATS times: a fresh interpreter imports the
        # library, then the seed's world is generated. Every copy of the
        # world must be byte-identical.
        import_s, gen_s, world_digests = [], [], set()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(IMPORT_CMD, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
            import_s.append(time.perf_counter() - t0)
            shutil.rmtree(run_dir / "world", ignore_errors=True)
            t0 = time.perf_counter()
            generate_world(run_dir / "world", rng_seed=args.seed, **world_kwargs)
            gen_s.append(time.perf_counter() - t0)
            world_digests.add(tree_digest(run_dir / "world", "*"))
        if len(world_digests) != 1:
            print("error: generate_world wrote different files for the same seed", file=sys.stderr)
            return 1
        setup_s = statistics.median(i + g for i, g in zip(import_s, gen_s))
        ctx = workloads.Context(run_dir / "world", run_dir / "out", DataPaths.from_dir(run_dir / "world"))

        source = tree_digest(ROOT / "src" / "physrel", "*.py")[:16]
        world = world_digests.pop()[:16]
        ledger = Ledger(WORK_DIR / "ledger" / f"{args.workload}-{source}-{world}.json")
        tracer = tracing.Tracer(run_id) if args.trace else None

        # The loop (ops and their checks) fits in --seconds: another op starts
        # only if one more op and check, as long as the last, still fits.
        walls, outcomes, peak_rss_mb, refs = [], [], None, []
        loop_start, last_round = time.perf_counter(), 0.0
        while not walls or time.perf_counter() - loop_start + last_round <= args.seconds:
            round_start = time.perf_counter()
            time_reference(refs)
            before = tracer.exact_counts() if tracer else {}
            if tracer:
                tracer.install()
            output, error = None, None
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                output = tracer.call("op", workload.run, ctx) if tracer else workload.run(ctx)
            except Exception:
                error = traceback.format_exc()
            walls.append(time.perf_counter() - t0)
            cpu_s = time.process_time() - cpu0
            if tracer:
                tracer.uninstall()
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

            if error is None:
                try:
                    outcome = workload.check(ctx, output)
                except Exception:
                    outcome = workloads.Outcome(errors=["check raised:\n" + traceback.format_exc()])
            else:
                outcome = workloads.Outcome(errors=["op raised:\n" + error])
            del output
            if tracer:
                after = tracer.exact_counts()
                outcome.counts.update({f"trace.{k}": v - before.get(k, 0) for k, v in after.items()})
            if not outcome.errors:
                outcome.errors = ledger.drift(outcome.counts, outcome.digest)
            for message in outcome.errors:
                print(f"op {len(walls)} failed: {message}", file=sys.stderr)
            outcomes.append(outcome)
            last_round = time.perf_counter() - round_start
            print(
                f"# op {len(walls)}: {walls[-1]:.3f} s cpu {cpu_s:.3f} s accuracy={outcome.accuracy:.4f} "
                f"converged={sum(outcome.converged)}/{len(outcome.converged)} counts={json.dumps(outcome.counts)}"
            )
        ledger.save()
        time_reference(refs)

        failed = sum(1 for o in outcomes if o.errors)
        good = [i for i, o in enumerate(outcomes) if not o.errors] or list(range(len(outcomes)))
        ref_s = statistics.median(refs)
        scale = NOMINAL_REF_S / ref_s
        wall_s = statistics.median(walls[i] for i in good) * scale
        accuracy = statistics.median(outcomes[i].accuracy for i in good)
        if tracer:
            metrics = tracer.layer_metrics(len(walls), wall_s)
            metrics["host.ref_s"] = (ref_s, "s")
            trace_path = WORK_DIR / "traces" / f"{run_id}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump_spans(trace_path)
        else:
            metrics = {
                "wall_s": (wall_s, "s"),
                "setup_s": (setup_s * scale, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                # NaN only when every op raised; JSON has no NaN.
                "accuracy": (0.0 if math.isnan(accuracy) else accuracy, "fraction"),
            }
        print(f"# env {json.dumps(environment(), sort_keys=True)}")
        print(f"# ref_s={[round(r, 5) for r in refs]}")
        print(f"# ref_median_s={ref_s:.5f} scale={scale:.4f} raw_setup_s={setup_s:.4f}")
        print(f"# ops={len(walls)} walls_s={[round(w, 4) for w in walls]}")
        print(f"# import_s={[round(t, 4) for t in import_s]} gen_s={[round(t, 4) for t in gen_s]}")
        result = {
            "correct": failed == 0,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
