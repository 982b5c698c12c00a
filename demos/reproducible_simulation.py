#!/usr/bin/env python3
"""Counter-based substreams make every Monte Carlo result reproducible.

Trial i always draws from block i of a Philox stream keyed by the seed, so
estimates do not depend on chunking, execution order, or how many workers
split the sweep.
"""

import numpy as np

from noma_isac import (
    ISAC,
    baseline_config,
    db_to_linear,
    estimate_outage,
    gain_samples,
)

cfg = baseline_config()
seed = 42

print("=== Per-trial substreams are pure functions of (seed, index) ===")
gn, gf = gain_samples(cfg, seed, start=0, count=10)
for i in (0, 3, 7):
    single_n, single_f = gain_samples(cfg, seed, i, 1)
    print(f"trial {i}: batch ({gn[i]:.6f}, {gf[i]:.6f})  single ({single_n[0]:.6f}, {single_f[0]:.6f})")

print()
print("Arbitrary chunk boundaries splice to the same stream:")
whole = gain_samples(cfg, seed, 0, 1000)
parts = np.concatenate([gain_samples(cfg, seed, 0, 137)[0], gain_samples(cfg, seed, 137, 863)[0]])
print("  bit-identical:", bool(np.array_equal(whole[0], parts)))

print()
print("=== Estimates repeat bit for bit ===")
p = db_to_linear(20)
est_a = estimate_outage(cfg, ISAC, p, trials=300_000, seed=seed)
est_b = estimate_outage(cfg, ISAC, p, trials=300_000, seed=seed)
print(f"run 1: near {est_a[0].value:.6e} +- {est_a[0].std_error:.2e}")
print(f"run 2: near {est_b[0].value:.6e} +- {est_b[0].std_error:.2e}")
print("identical:", est_a == est_b)

print()
print("Different seeds explore different channel realizations:")
for s in (1, 2, 3):
    est_n, est_f = estimate_outage(cfg, ISAC, p, trials=300_000, seed=s)
    print(f"  seed {s}: near {est_n.value:.6e}, far {est_f.value:.6e}")
