"""Which factor families matter? Ablations and threshold tuning.

Every factor family sits behind a switch, so the contribution of each can be
measured by toggling it and rerunning. The same machinery drives threshold
tuning: an exhaustive grid search scored on the dev split.
"""
from dataclasses import replace
from pathlib import Path

from physrel import BPConfig, BuildConfig, TaskSpec, generate_world, tune_thresholds
from physrel.harness import SWITCHES, infer, prepare, run_task, toggle_switch

world = generate_world(Path(__file__).parent / "_world", rng_seed=0)
spec = TaskSpec(task="objects", cross_seed_fraction="20", eval_split="dev")
base = BuildConfig()
bp = BPConfig()

# ---------------------------------------------------------------------------
# Toggle each switch against the full configuration. Binary-factor kinds are
# removed; class-level switches drop the seed/classifier unaries of one node
# class. (Positive deltas mean the component helps.) The data and the seed
# classifiers do not depend on the build config, so they are prepared once.
prepared = prepare(spec, world.paths)
full = infer(prepared, base, bp).report
print(f"full configuration: dev overall = {full.overall:.3f}\n")
print(f"{'switch':>20}  {'toggled':>8}  {'delta':>7}")
for switch in SWITCHES:
    toggled = infer(prepared, toggle_switch(base, switch), bp).report
    print(f"{switch:>20}  {toggled.overall:8.3f}  {full.overall - toggled.overall:+7.3f}")

# ---------------------------------------------------------------------------
# Dev-set grid search over the object-similarity threshold and the factor
# set, as one would tune on real data. Deterministic: ties break toward the
# lexicographically smaller config.
grid = [
    base,
    replace(base, obj_sim_threshold=0.5),
    replace(base, obj_sim_threshold=0.9),
    replace(base, enabled_factor_kinds=frozenset({"seed", "emb", "selpref", "verbsim", "objsim"})),
]
tuned = tune_thresholds(spec, grid, world.paths, bp)
print(f"\ntuned dev overall = {tuned.best_score:.3f}")
print("chosen config:")
print("  " + tuned.best.to_text().replace("\n", "\n  ").rstrip())

# The tuned config is then applied once to the untouched test split.
test_spec = replace(spec, eval_split="test")
final = run_task(test_spec, tuned.best, bp, world.paths).report
print(f"\ntest overall with tuned config = {final.overall:.3f}")
