"""Walk through one uncoupled stopping problem end to end.

A crowd of agents starts near the origin and diffuses; the running
reward 1.44 - x^2 turns negative outside |x| = 1.2, so each agent wants
to stop before drifting too far out.  The script solves the obstacle
problem, pushes the initial law through the stopped chain, and shows
the identities that make the answer trustworthy: strong duality,
complementarity, mass conservation, and a Monte Carlo cross-check.
"""

import numpy as np

from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    InitialMeasure,
    ProductField,
    build_grid,
    build_transition_operator,
    pair,
    simulate_paths,
    solve_vi,
    stopped_forward_measure,
    value_at_initial,
)
from mfgstop.obstacle import complementarity_report


def main() -> None:
    grid = build_grid(T=1.0, a=-3.0, b=3.0, K=60, J=59)
    model = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.0)),
                           sigma=ProductField(CoefficientFn.constant(0.5)))
    P = build_transition_operator(model, grid)
    w = np.exp(-0.5 * (grid.x / 0.5) ** 2)
    m0 = InitialMeasure.from_masses(w / w.sum())
    f = np.tile(1.44 - grid.x ** 2, (grid.K + 1, 1))

    v = solve_vi(f, P)
    family, ledger = stopped_forward_measure(v.stop_mask, m0, P)
    value = value_at_initial(v, m0)
    paired = pair(f, family)

    print("single-agent stopping on (-3, 3), sigma = 0.5, T = 1")
    print(f"  value at the initial law        {value:.12f}")
    print(f"  reward paired with the measure  {paired:.12f}")
    print(f"  duality gap                     {abs(value - paired):.3e}")

    comp = complementarity_report(v, f, family, P)
    print(f"  mass on the stop region         {comp.stop_region_integral:.3e}")
    print(f"  continuation residual           {comp.continuation_residual:.3e}")
    print(f"  mass ledger: stopped {ledger.total_stopped:.4f}, "
          f"absorbed {ledger.total_absorbed:.4f}, "
          f"surviving {ledger.surviving:.4f} "
          f"(conservation gap {ledger.conservation_gap:.1e})")

    n = 20000
    mc = simulate_paths(model, grid, v, m0, n, seed=0)
    fd_tot = family.slice_totals()
    mc_tot = mc.family.slice_totals()
    print(f"\n  Monte Carlo cross-check, {n} paths (totals per time slice):")
    print("    k    t      chain     paths     |diff|")
    for k in (0, 10, 20, 30, 40, 50, 60):
        print(f"   {k:3d}  {grid.t[k]:.3f}  {fd_tot[k]:.5f}   "
              f"{mc_tot[k]:.5f}   {abs(fd_tot[k] - mc_tot[k]):.5f}")
    print("  (differences are sampling noise plus the chain's own time-stepping "
          "error, which shrinks with the time step; see README)")


if __name__ == "__main__":
    main()
