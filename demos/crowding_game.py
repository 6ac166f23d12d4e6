"""The reference crowding game, solved to equilibrium.

Every agent collects a flow 1 - 2 y(t) while active, where y(t) is the
mass of agents still active: staying is attractive exactly while fewer
than half the crowd remains.  The reward decreases in the aggregate, so
the game is potential and the conditional-gradient iteration climbs a
single functional to the unique equilibrium value.
"""

from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    FBarFn,
    InitialMeasure,
    ModelContext,
    ProductField,
    RewardSpec,
    build_grid,
    build_transition_operator,
    fixed_point_solve,
    stopped_forward_measure,
)


def main() -> None:
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=100, J=100)
    model = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.0)),
                           sigma=ProductField(CoefficientFn.constant(0.5)))
    P = build_transition_operator(model, grid)
    m0 = InitialMeasure.uniform(grid)
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 2.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)

    result = fixed_point_solve(spec, ctx, eps_tol=1e-9)
    tr = result.trace
    print("crowding game on (0, 1): flow 1 - 2*y(t), sigma = 0.5, J = K = 100")
    print("  iter   potential F        exploitability   step")
    for i in range(len(tr)):
        print(f"  {i + 1:4d}   {tr.potential[i]:.12f}   "
              f"{tr.exploitability[i]:.3e}        {tr.rho[i]:.4f}")
    tag = "converged" if result.converged else "stopped at the iteration cap"
    print(f"  {tag} after {result.iterations} iterations")
    print(f"  equilibrium value               {result.value:.12f}")
    print(f"  final exploitability            {result.exploitability:.3e}")
    print(f"  duality gap at the equilibrium  {result.duality_gap:.3e}")

    other = fixed_point_solve(spec, ctx,
                              m_init=stopped_forward_measure(None, m0, P),
                              eps_tol=1e-9)
    print(f"\n  restarted from the never-stop family: "
          f"value {other.value:.12f} "
          f"(difference {abs(other.value - result.value):.3e})")


if __name__ == "__main__":
    main()
