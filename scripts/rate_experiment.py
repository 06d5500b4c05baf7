"""Empirical vs theoretical contraction rate on a fiber-wise mixing fixture.

Runs the full pipeline on the bundled full-3-shift fixture (or any system
file with a factor map): variation profile of log g, exponential fit,
contraction profile of the block products, and the optimized rate bound.
"""

import argparse

import gibbsfactor as gf
from gibbsfactor import fixtures
from gibbsfactor.sysio import parse_system


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("system", nargs="?", default=None,
                        help="system JSON (default: bundled full-3-shift fixture)")
    parser.add_argument("--m", type=int, default=12)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--n0", type=int, default=2)
    parser.add_argument("--theta", type=float, default=0.5)
    parser.add_argument("--grid", type=int, default=64)
    args = parser.parse_args()

    desc = parse_system(args.system) if args.system else fixtures.rate_demo()
    pipe = gf.build_pipeline(desc)
    fs = pipe.factor
    if fs is None:
        raise SystemExit("system file declares no factor map")

    search = gf.fwm_search(fs, 8)
    print(f"fiber-wise mixing span: {search.found}")
    if search.found is None:
        print("not fiber-wise mixing up to N = 8; no exponential bound applies")

    prof = gf.variation_profile(fs, pipe.pd, args.m, args.n_max)
    fit = gf.decay_fit(prof, n0=args.n0)
    print(f"var_hat: {['%.3e' % v for v in prof.var_hat]}")
    print(f"fit: {fit.classification}, rho = {fit.exp_rate:.4f}, "
          f"R^2 = {fit.r_squared_exp:.5f}")

    if search.found is not None:
        cp = gf.contraction_profile(fs, search.found)
        print(f"contraction profile at N = {search.found}: "
              f"max delta = {cp.max_delta:.4f}, max tau = {cp.max_tau:.4f}")
        env = gf.holder_envelope(pipe.potential, args.theta)
        is_full_shift = bool(pipe.sft.adjacency.all())
        if is_full_shift and search.found == 1:
            bound = gf.eta_optimize(env.theta, env.holder_constant,
                                    full_shift=True, grid_size=args.grid)
        else:
            bound = gf.eta_optimize(env.theta, env.holder_constant,
                                    n_steps=search.found, sup_norm=env.sup_norm,
                                    log_ln1_sup_norm=gf.log_ln1_sup_norm(pipe.tm, search.found),
                                    grid_size=args.grid)
        print(f"rate bound: eta = {bound.eta:.5f} at sigma = {bound.sigma:.4f} "
              f"(per-symbol rate {bound.eta ** (1 / bound.n_steps):.5f})")
        if fit.classification in ("exponential", "constant"):
            verdict = gf.rate_compare(fit, bound)
            print(f"observed rate {verdict.empirical_rate:.4f} <= "
                  f"bound {verdict.theoretical_rate:.4f}: {verdict.satisfied}")


if __name__ == "__main__":
    main()
