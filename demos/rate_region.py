#!/usr/bin/env python3
"""Sensing-communication rate regions of the two architectures at 5 dB.

The integrated mode achieves a full rectangle; the frequency-division region
is swept over all (kappa, mu) splits.  Every swept point is dominated by the
integrated corner, with the boundary splits binding exactly.
"""

from noma_isac import (
    baseline_config,
    containment_check,
    db_to_linear,
    fdsac,
    fdsac_frontier,
    isac_corner,
    sensing_rate,
    sum_rate,
)

cfg = baseline_config()
p = db_to_linear(5.0)

corner = isac_corner(cfg, p)
print("=== Integrated-mode rectangle corner at 5 dB ===")
print(f"sensing rate: {corner.rate_s:.6f} bits/s/Hz")
print(f"sum comm rate: {corner.rate_c:.6f} bits/s/Hz")

frontier = fdsac_frontier(cfg, p, grid_n=41)
print()
print(f"=== Frequency-division sweep: {frontier.rate_s.size} splits, "
      f"{frontier.pareto.size} Pareto-maximal ===")
print(f"{'kappa':>6} {'mu':>6} | {'rate_s':>9} {'rate_c':>9}")
# Grid point i splits at kappa = fractions[i // n] and mu = fractions[i % n].
n = frontier.fractions.size
step = max(1, frontier.pareto.size // 12)
for i in frontier.pareto[::step]:
    print(f"{frontier.fractions[i // n]:6.3f} {frontier.fractions[i % n]:6.3f} | "
          f"{frontier.rate_s[i]:9.5f} {frontier.rate_c[i]:9.5f}")

print()
print("Boundary splits recover the corner coordinates:")
print(f"  (kappa, mu) = (1, 1): sum rate   {sum_rate(cfg, fdsac(1.0, 1.0), p):.9f}"
      f"  vs corner {corner.rate_c:.9f}")
print(f"  (kappa, mu) = (0, 0): sensing    {sensing_rate(cfg, fdsac(0.0, 0.0), p):.9f}"
      f"  vs corner {corner.rate_s:.9f}")

report = containment_check(corner, fdsac_frontier(cfg, p, grid_n=101))
verdict = "contained" if report.holds else "NOT contained"
print()
print(f"Containment on the 101x101 grid: {verdict} "
      f"(max coordinate excess {report.max_violation:.2e})")
