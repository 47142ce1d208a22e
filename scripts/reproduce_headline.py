#!/usr/bin/env python3
"""Print the headline operating points of the repeater-chain model.

Runs the exact (n, m) optimizer at 150 km for the baseline hardware and a
few variations, then the fixed-spacing comparison and the distance where the
optimized chain first beats the repeaterless bound. Everything is computed
from scratch; expect well under a second after the imports.
"""
import time

from ionrep import (
    Constraints,
    HardwareProfile,
    crossover_distance,
    fiber_transmissivity,
    optimize_rate,
    plob_bound,
)

L_KM = 150.0
BASE = HardwareProfile()


def show(tag, res):
    rep = res.report
    l0 = L_KM / (res.n_opt + 1)
    print(f"  {tag}")
    print(f"    n_opt={res.n_opt}  m_opt={res.m_opt}  L0={l0:.3g} km  "
          f"regime {rep.regime.value}")
    print(f"    noisy rate {rep.noisy_rate:.6g} ebits/s   "
          f"ions per module: N_o={rep.n_o}  N_m={rep.n_m}"
          f"{' (upper bound)' if rep.n_m_is_upper_bound else ''}")


def main():
    t0 = time.perf_counter()
    print(f"free placement at L={L_KM:g} km")
    free = {}
    for mux in (1, 5, 10):
        free[mux] = optimize_rate(L_KM, mux, BASE)
        show(f"M={mux}", free[mux])
    print(f"  multiplexing product m_opt*M: "
          f"{', '.join(str(free[m].m_opt * m) for m in (1, 5, 10))}")

    print("\nnoisier gates (eps_g = 1 - F0 = 1e-3), M=10")
    show("eps=1e-3", optimize_rate(L_KM, 10, BASE.updated(eps_g=1e-3, f0=0.999)))

    print("\nslow swap gates (tau_g = 10 us), M=10")
    show("tau_g=10us", optimize_rate(L_KM, 10, BASE.updated(tau_g=10e-6)))

    print("\nfixed 20 km spacing vs free placement, M=10")
    fixed = optimize_rate(L_KM, 10, BASE,
                          constraints=Constraints(fixed_l0_km=20.0))
    show("requested L0=20 km (nearest integer chain)", fixed)
    frac = fixed.report.noisy_rate / free[10].report.noisy_rate
    print(f"    retains {100 * frac:.1f}% of the free-placement rate")

    print("\nrepeaterless benchmark")
    eta = fiber_transmissivity(BASE.optical.alpha_db_per_km, L_KM)
    plob = plob_bound(eta, 10, BASE.timing.tau)
    print(f"  PLOB capacity at {L_KM:g} km, M=10: {plob:.6g} ebits/s "
          f"(chain: {free[10].report.noisy_rate:.6g})")
    for mux in (1, 10):
        x = crossover_distance(mux, BASE)
        print(f"  M={mux}: chain first beats PLOB at {x:g} km")

    print(f"\ndone in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
