#!/usr/bin/env python3
"""Counter-based substreams make every Monte Carlo result reproducible.

Trial i always draws from block i of a Philox stream keyed by the seed, so
estimates do not depend on chunking or execution order.  Each leaf of trials
is drawn once per call and shared by every power, so they do not depend
either on how many threads (`workers`) evaluate whole leaves.
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
value_a, se_a = estimate_outage(cfg, ISAC, p, trials=300_000, seed=seed)
value_b, se_b = estimate_outage(cfg, ISAC, p, trials=300_000, seed=seed)
print(f"run 1: near {value_a[0]:.6e} +- {se_a[0]:.2e}")
print(f"run 2: near {value_b[0]:.6e} +- {se_b[0]:.2e}")
print("identical:", np.array_equal(value_a, value_b) and np.array_equal(se_a, se_b))

print()
print("Different seeds explore different channel realizations:")
for s in (1, 2, 3):
    (near, far), _ = estimate_outage(cfg, ISAC, p, trials=300_000, seed=s)
    print(f"  seed {s}: near {near:.6e}, far {far:.6e}")
