"""End-to-end joint inference on a synthetic world with known ground truth.

Generates a 30-object world (latent per-attribute scores, verbs with known
implications, co-occurrence evidence, embeddings), then compares the
baselines against the full factor-graph model on both prediction tasks:
inferring what held-out frames imply, and inferring held-out object-pair
relations. The interesting effect is joint: frame nodes and pair nodes
inform each other through selectional-preference links.
"""
from pathlib import Path

from physrel import BPConfig, BuildConfig, TaskSpec, generate_world
from physrel.harness import (
    assemble_task_dataset,
    baseline_emb_maxent,
    baseline_majority,
    baseline_random,
    infer,
    prepare,
)

world_dir = Path(__file__).parent / "_world"
world = generate_world(world_dir, rng_seed=0)
print(f"world written to {world_dir} ({len(world.objects)} objects, {len(world.verbs)} verbs)")

for task in ("frames", "objects"):
    # 5% of the in-domain data is seed; the other domain contributes its 20%
    # seed profile. Evaluation is on the held-out test half.
    spec = TaskSpec(task=task, cross_seed_fraction="20", eval_split="test")
    dataset = assemble_task_dataset(world.paths, spec)
    # The classifiers are trained once and shared by the emb-maxent baseline
    # and the full model.
    prepared = prepare(spec, world.paths)

    rows = [
        ("random", baseline_random(dataset, spec, rng_seed=0, resamples=1000)),
        ("majority", baseline_majority(dataset, spec)),
        ("emb-maxent", baseline_emb_maxent(prepared.dataset, spec, prepared.models)),
        ("full model", infer(prepared, BuildConfig(), BPConfig()).report),
    ]

    print(f"\n=== {task} task (test split) ===")
    header = ["algorithm"] + sorted(rows[0][1].per_attribute) + ["overall"]
    print("  " + "  ".join(f"{h:>10}" for h in header))
    for name, report in rows:
        cells = [f"{report.per_attribute[a]:10.3f}" for a in sorted(report.per_attribute)]
        print("  " + f"{name:>10}  " + "  ".join(cells) + f"  {report.overall:10.3f}")
