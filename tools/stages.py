"""Stage timings of two source trees, run alternately, at both scales.

    python tools/stages.py --parent PARENT_DIR --change CHANGE_DIR --out OUT.json

Each tree is a checkout with the library under ``src/``. In each of
ROUNDS rounds, for each scale and seed, both trees run ``harness.run_task``
in a fresh interpreter each, in an order that alternates from round to
round. Scales: ``small`` is the 30-object world the tests use, ``paper`` is
``generate_world(n_objects=200, n_verbs=300, n_pairs=3600)``; seeds are 0,
7 and 7919. Each process first runs one untimed ``run_task``, then REPEAT
timed ones per task (``objects/20/test`` and ``frames/5/dev``), and records
each run's ``RunResult.timings`` (seconds per stage), BP's iteration count,
``converged`` and BP's seconds per iteration; after each timed run it times
``dump_graph`` of the run's graph as stage ``dump`` and ``load_graph`` of
that text as stage ``load_graph`` (``load`` is the data's), and records the
dump's sha256. At its end it records its own peak RSS (``ru_maxrss``) and
that of its reaped children (``RUSAGE_CHILDREN``: the BP worker processes
``run_bp`` forks, if any). Both trees read the same
world files, written once per scale and seed by the change tree's
``generate_world``. One BLAS thread per process.

The output holds every run and, per scale, seed, task and stage, each
tree's median, the median over rounds of the two trees' ratio, which
cancels most of a shared host's drift between rounds, and the rounds in
which the change's median was the lower; ``same_bp`` says whether every
run of both trees gave the same iterations and ``converged``, and ``same_dump``
whether every dump of one scale, seed and task had the same sha256;
``peak_rss_median_mb`` gives, per scale, seed and tree, the median over processes of both peaks,
and ``host`` the CPUs the runner may use.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCALES = {"small": {}, "paper": {"n_objects": 200, "n_verbs": 300, "n_pairs": 3600}}
SEEDS = (0, 7, 7919)
TASKS = (("objects", "20", "test"), ("frames", "5", "dev"))
TREES = ("parent", "change")
ROUNDS = 10  # alternating pairs of processes per scale and seed
REPEAT = 2  # timed run_task calls per task in each process
# A process's own peak RSS, and the largest of its reaped children's.
PEAKS = {"self": resource.RUSAGE_SELF, "children": resource.RUSAGE_CHILDREN}


def worker(world: str) -> None:
    """Print one JSON line per timed run_task on ``world``."""
    from physrel import factorgraph  # BPConfig, dump_graph and load_graph, which every tree has
    from physrel.builder import BuildConfig
    from physrel.harness import DataPaths, TaskSpec, run_task

    paths = DataPaths.from_dir(world)
    run_task(TaskSpec(*TASKS[0]), BuildConfig(), factorgraph.BPConfig(), paths)  # imports, caches and first-touch pages
    for task in TASKS:
        for rep in range(REPEAT):
            result = run_task(TaskSpec(*task), BuildConfig(), factorgraph.BPConfig(), paths)
            start = time.perf_counter()
            text = factorgraph.dump_graph(result.build.graph)
            dumped = time.perf_counter()
            factorgraph.load_graph(text)
            timings = {**result.timings, "dump": dumped - start, "load_graph": time.perf_counter() - dumped}
            print(json.dumps({
                "task": "/".join(task), "rep": rep, "timings": timings, "iterations": result.bp.iterations,
                "converged": result.bp.converged, "bp_per_iteration": result.timings["bp"] / result.bp.iterations,
                "dump_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }))  # fmt: skip
    peaks = {key: resource.getrusage(who).ru_maxrss / 1024 for key, who in PEAKS.items()}
    print(json.dumps({"peak_rss_mb": peaks}))


def python(tree: Path, *args: str) -> str:
    """Run a fresh interpreter on ``tree``'s library; return its standard output."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True, text=True).stdout


def summarize(runs: list[dict]) -> list[dict]:
    """Per scale, seed, task and stage: each tree's median over every run;
    per round, each tree's median, and over the rounds the median of their
    ratio (change / parent) and the count of rounds the change was lower."""
    groups: dict = {}
    for run in runs:
        stages = {**run["timings"], "bp_per_iteration": run["bp_per_iteration"]}
        for stage, seconds in stages.items():
            key = (run["scale"], run["seed"], run["task"], stage)
            groups.setdefault(key, {}).setdefault(run["round"], {}).setdefault(run["tree"], []).append(seconds)
    rows = []
    for (scale, seed, task, stage), rounds in groups.items():
        every = {tree: [s for r in rounds.values() for s in r.get(tree, [])] for tree in TREES}
        if not all(every.values()):
            continue
        parent, change = (statistics.median(every[tree]) for tree in TREES)
        paired = [(statistics.median(r["parent"]), statistics.median(r["change"])) for r in rounds.values()]
        rows.append({
            "scale": scale, "seed": seed, "task": task, "stage": stage, "parent_median_s": parent,
            "change_median_s": change, "paired_ratio_median": statistics.median(c / p for p, c in paired),
            "change_lower_rounds": sum(c < p for p, c in paired), "rounds": len(rounds),
        })  # fmt: skip
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if args.parent is None or args.change is None or args.out is None:
        parser.error("--parent, --change and --out are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, processes = [], []
    with tempfile.TemporaryDirectory() as tmp:
        worlds = {}
        for scale, sizes in SCALES.items():
            for seed in SEEDS:
                world = worlds[scale, seed] = Path(tmp) / f"{scale}-{seed}"
                code = f"import physrel.synthetic as s; s.generate_world({str(world)!r}, {seed}, **{sizes!r})"
                python(trees["change"], "-c", code)
        for round_ in range(ROUNDS):
            order = TREES if round_ % 2 == 0 else TREES[::-1]
            for (scale, seed), world in worlds.items():
                for tree in order:
                    out = python(trees[tree], __file__, "--worker", str(world))
                    for line in out.splitlines():
                        record = {"round": round_, "tree": tree, "scale": scale, "seed": seed, **json.loads(line)}
                        (processes if "peak_rss_mb" in record else runs).append(record)
                print(f"round {round_} {scale} seed {seed} done", file=sys.stderr)
    import numpy

    bp = {(r["scale"], r["seed"], r["task"], r["iterations"], r["converged"]) for r in runs}
    dumps = {(r["scale"], r["seed"], r["task"], r["dump_sha256"]) for r in runs}
    peaks: dict = {}  # per scale, seed and tree: each peak over the processes
    for p in processes:
        group = peaks.setdefault(f'{p["scale"]} seed {p["seed"]} {p["tree"]}', {})
        for key, mb in p["peak_rss_mb"].items():
            group.setdefault(key, []).append(mb)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    result = {
        "method": f"python tools/stages.py: {ROUNDS} rounds, {REPEAT} timed runs per task and process",
        "host": {
            "nproc": os.cpu_count(), "usable_cpus": cpus, "python": platform.python_version(), "numpy": numpy.__version__
        },
        "same_bp": len(bp) == len({key[:3] for key in bp}),
        "same_dump": len(dumps) == len({key[:3] for key in dumps}),
        "summary": summarize(runs),
        "peak_rss_median_mb": {group: {k: statistics.median(v) for k, v in by.items()} for group, by in peaks.items()},
        "runs": runs,
        "processes": processes,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
