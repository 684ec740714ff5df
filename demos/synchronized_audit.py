"""Auditing the simulator: coupled noise maps, faithfulness, and call counts.

The privacy argument rests on a simulator that reproduces the engine's output
distribution while consulting the real data holder only rarely.  This script
checks all three legs empirically: the coupled geometric map, distributional
faithfulness against the direct run, and the geometric tail of holder calls.
"""

from collections import Counter

import numpy as np

from slicedp import (
    Simulation,
    SliceComputation,
    ascending_map,
    audit_call_count,
    descending_map,
    direct_run,
    estimate_tv,
    run_trials,
    sample_geometric,
    sync_gamma,
    sync_map,
    sync_map_exact_dist,
    sync_threshold,
    trial_streams,
)

rng = np.random.default_rng(7)

print("== threshold sequence and reach ==")
for eps in (0.5, 0.1):
    ts = [sync_threshold(eps, i) for i in range(sync_gamma(eps) + 2)]
    print(f"  eps={eps}: gamma={sync_gamma(eps)}, t_i=" +
          ", ".join(f"{t:.3f}" for t in ts))

print()
print("== exact coupled distribution (eps=0.5) ==")
eps = 0.5
gamma = sync_gamma(eps)
for b in (0, 1):
    dist = sync_map_exact_dist(b, eps, cutoff=gamma + 3)
    mass = sum(p for _, p in dist.outcomes) + dist.tail
    synced = sum(p for (m, beta), p in dist.outcomes if beta == 1)
    print(f"  b={b}: outcomes={len(dist.outcomes)} tail={dist.tail:.4f} "
          f"total={mass:.12f} Pr[beta=1]={synced:.4f}")
print(f"  sync mass stays above 1/(1+e^eps) = {1/(1+np.exp(eps)):.4f}")

# spot check: geometric draw piped through the map matches the exact law
counts = Counter()
for _ in range(50000):
    out = sync_map(0, sample_geometric(eps, rng), eps, rng)
    counts[(out.alpha, out.beta)] += 1
dist = sync_map_exact_dist(0, eps, cutoff=gamma + 3)
worst = max(abs(counts.get(k, 0) / 50000 - p) for k, p in dist.outcomes)
print(f"  sampled vs exact, max abs gap over outcomes: {worst:.4f}")

print()
print("== simulator faithfulness ==")
data = [3, 7, 1, 12, 9, 15, 4, 8]
x, eps = 5, 0.5
# criterion 02's script: the max of the smallest slice and the min of the
# largest both depend on where the slices cut, so wrong slice contents show
script = [
    SliceComputation(2, lambda s: int(s.max()) if s.size else -1, ascending_map()),
    SliceComputation(2, lambda s: int(s.min()) if s.size else -1, descending_map()),
]
# one simulator for both bits and every trial; forked parts share it
simulation = Simulation(data, x, script, eps)
trials = 20000
for b in (0, 1):
    target = data + [x] if b == 1 else data

    # trials fork across CPUs; trial i simulates on the stream [7, 2b, i]
    # and runs directly on [7, 2b + 1, i]
    def outputs(part):
        sim = [tuple(simulation.run(b, r).published)
               for r in trial_streams(7, (2 * b,), part)]
        ref = [tuple(direct_run(target, script, eps, r))
               for r in trial_streams(7, (2 * b + 1,), part)]
        return sim, ref

    parts = run_trials(outputs, range(trials))
    sim = [out for part_sim, _ in parts for out in part_sim]
    ref = [out for _, part_ref in parts for out in part_ref]
    print(f"  b={b}: TV(simulated, direct) ~ {estimate_tv(sim, ref):.4f} "
          f"over {trials} trials")

print()
print("== holder call counts on an adversarial stream ==")
# every query in the min-ascending stream brushes against x = 0
stream = [SliceComputation(1, lambda s: int(s.min()) if s.size else -1,
                           ascending_map()) for _ in range(16)]
# trial i counts on the stream [8, 2, i]; seed 7's role 2 is the b = 1
# simulation's above
audit = audit_call_count(list(range(1, 49)), 0, 1, stream, 0.5,
                         trials=4000, seed=8)
print(f"  mean calls {audit.mean:.3f} over {audit.trials} trials")
print("  w : Pr[calls > w] vs (5/6)^w")
for w, prob in audit.tail[:8]:
    print(f"  {w:2d}: {prob:.4f} vs {(5/6)**w:.4f}")
