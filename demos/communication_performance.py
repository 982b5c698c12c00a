#!/usr/bin/env python3
"""Outage probability and ergodic communication rate across an SNR sweep.

Walks the two-user downlink through 0-40 dB in both operating modes,
comparing the closed forms against their high-SNR asymptotes and against
independent Monte Carlo estimates, then reads off diversity orders and
high-SNR slopes from the curves.
"""

import math

from noma_isac import (
    ISAC,
    baseline_config,
    db_to_linear,
    ergodic_rates,
    estimate_ecr,
    estimate_outage,
    estimate_slope,
    fdsac,
    outage_asymptotic,
    outage_probability,
    reference_table,
)

cfg = baseline_config()
half_split = fdsac(0.5, 0.5)
snr_grid = range(0, 45, 5)
powers = [db_to_linear(snr_db) for snr_db in snr_grid]
trials = 200_000
seed = 2024

# ---------------------------------------------------------------- outage
print("=== Outage probability, closed form vs Monte Carlo ===")
print(f"{'SNR':>4} | {'mode':>5} | {'P_out near':>12} {'(MC)':>12} | {'P_out far':>12} {'(MC)':>12}")
# One Monte Carlo call per mode: every SNR point shares the same trials.
# Each estimate is (value, std_error), with the near user in row 0.
estimates = {mode: estimate_outage(cfg, mode, powers, trials, seed)[0] for mode in (ISAC, half_split)}
for k, (snr_db, p) in enumerate(zip(snr_grid, powers)):
    for tag, mode in (("isac", ISAC), ("fdsac", half_split)):
        pn, pf = outage_probability(cfg, mode, p)
        mc_n, mc_f = estimates[mode][:, k]
        print(f"{snr_db:>4} | {tag:>5} | {pn:12.4e} {mc_n:12.4e} | {pf:12.4e} {mc_f:12.4e}")

print()
print("High-SNR asymptote quality at 40 dB (ratio exact/asymptote):")
p40 = db_to_linear(40)
for tag, mode in (("isac", ISAC), ("fdsac", half_split)):
    exact = outage_probability(cfg, mode, p40)
    asym = outage_asymptotic(cfg, mode, p40)
    print(f"  {tag:>5}: near {exact[0] / asym[0]:.4f}, far {exact[1] / asym[1]:.4f}")

print()
print("Diversity orders from the 30-40 dB log-log slope:")
for tag, mode in (("isac", ISAC), ("fdsac", half_split)):
    pts_n, pts_f = [], []
    for snr_db in range(30, 41):
        p = db_to_linear(snr_db)
        pn, pf = outage_probability(cfg, mode, p)
        pts_n.append((snr_db / 10.0, math.log10(pn)))
        pts_f.append((snr_db / 10.0, math.log10(pf)))
    print(f"  {tag:>5}: near {-estimate_slope(pts_n):.3f} (expect 2), far {-estimate_slope(pts_f):.3f} (expect 1)")

# ----------------------------------------------------------- ergodic rate
print()
print("=== Ergodic communication rates (bits/s/Hz) ===")
print(f"{'SNR':>4} | {'isac near':>10} {'isac far':>9} {'isac sum':>9} | {'fdsac sum':>9} | {'MC sum':>9}")
(mc_n, mc_f), _ = estimate_ecr(cfg, ISAC, powers, trials, seed)
for snr_db, p, mc_sum in zip(snr_grid, powers, mc_n + mc_f):
    ecr_n, ecr_f = ergodic_rates(cfg, ISAC, p)
    split_n, split_f = ergodic_rates(cfg, half_split, p)
    print(
        f"{snr_db:>4} | {ecr_n:10.4f} {ecr_f:9.4f} {ecr_n + ecr_f:9.4f} |"
        f" {split_n + split_f:9.4f} | {mc_sum:9.4f}"
    )

print()
print("Far-user rate ceiling: -log2(alpha_n) =", f"{-math.log2(cfg.alpha_n):.4f}")
print("Far-user rate at 50 dB:              ", f"{ergodic_rates(cfg, ISAC, db_to_linear(50))[1]:.4f}")

print()
print("Reference diversity/slope table (kappa = 0.5):")
for row in reference_table(cfg, kappa=0.5):
    print(
        f"  {row.system:>5}: D_near={row.diversity_nu:g} S_near={row.slope_nu:g} "
        f"D_far={row.diversity_fu:g} S_far={row.slope_fu:g} "
        f"S_sum={row.slope_sum:g} S_sensing={row.slope_sensing:.4f}"
    )
