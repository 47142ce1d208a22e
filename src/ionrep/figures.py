"""Canned distance-sweep families for the figure subcommand.

Each figure id maps to a fixed set of curves. A curve is a distance sweep of
the optimizer under specific hardware overrides and constraints, reduced to
one value column; the CSV layout is shared with the plain sweep subcommand.
Curves with the same spatial_mux, hardware and constraints differ only in
that column, so they share one sweep. A figure call hands its distinct
sweeps to one optimize.sweep_variants call, which gives the sweeps that
differ only in noise (eps_g, f0), n_o_max and n_m_max one row solve:
fig2-fig9 are 59 curves over 23 distinct sweeps, and `figure all` solves
them in 11 row solves (the eight ids one at a time, in 25).
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional

from .model import HardwareProfile, StepCountError
from .optimize import Constraints, SearchBounds, SweepRow, sweep_variants

CSV_COLUMNS = ("L_km", "value", "regime", "n_opt", "m_opt", "N_o", "N_m", "plob")


@dataclass(frozen=True)
class Curve:
    label: str
    value_field: str  # noisy_rate | m_opt | n_opt | n_o | n_m
    spatial_mux: int
    hw_overrides: dict = field(default_factory=dict)
    constraints: Optional[Constraints] = None


def _noise_knob(eps: float) -> dict:
    # one dial: gate infidelity and raw-pair infidelity move together
    return {"eps_g": eps, "f0": 1.0 - eps}


def _eps_label(eps: float) -> str:
    return "0" if eps == 0 else f"{eps:.0e}"


def _mux_noise_family(value_field: str) -> list[Curve]:
    return [
        Curve(label=f"M{mux}_eps{_eps_label(eps)}", value_field=value_field,
              spatial_mux=mux, hw_overrides=_noise_knob(eps))
        for mux in (1, 5, 10)
        for eps in (0.0, 1e-4, 1e-3)
    ]


def _figures() -> dict[str, tuple[str, list[Curve]]]:
    figs = {
        "fig2": ("optimized rate vs distance", _mux_noise_family("noisy_rate")),
        "fig3": ("optimal time multiplexing vs distance", _mux_noise_family("m_opt")),
        "fig4": ("optimal repeater count vs distance", _mux_noise_family("n_opt")),
        "fig5": ("communication ions per node vs distance", _mux_noise_family("n_o")),
        "fig6": ("memory ions per node vs distance", _mux_noise_family("n_m")),
        "fig7": ("rate vs distance with 10x slower gates", [
            Curve(label=f"M{mux}", value_field="noisy_rate", spatial_mux=mux,
                  hw_overrides={"tau_g": 10e-6, **_noise_knob(1e-4)})
            for mux in (1, 5, 10)
        ]),
        "fig8": ("rate vs distance at fixed repeater spacing", [
            Curve(label=f"L0_{l0:g}km", value_field="noisy_rate", spatial_mux=10,
                  hw_overrides=_noise_knob(1e-4),
                  constraints=Constraints(fixed_l0_km=l0))
            for l0 in (2.0, 5.0, 10.0, 20.0)
        ]),
        "fig9": ("rate vs distance under ion-count caps", [
            Curve(label="Nomax125_M1_tau1us", value_field="noisy_rate",
                  spatial_mux=1, hw_overrides=_noise_knob(1e-4),
                  constraints=Constraints(n_o_max=125)),
            Curve(label="Nomax125_M5_tau1us", value_field="noisy_rate",
                  spatial_mux=5, hw_overrides=_noise_knob(1e-4),
                  constraints=Constraints(n_o_max=125)),
            # slower clock trades gate-time ratio for more spatial modes
            Curve(label="Nomax125_M50_tau10us", value_field="noisy_rate",
                  spatial_mux=50,
                  hw_overrides={"tau": 10e-6, **_noise_knob(1e-4)},
                  constraints=Constraints(n_o_max=125)),
        ] + [
            Curve(label=f"Nmmax{cap}_M5", value_field="noisy_rate",
                  spatial_mux=5, hw_overrides=_noise_knob(1e-4),
                  constraints=Constraints(n_m_max=cap))
            for cap in (20, 40, 60, 100)
        ]),
    }
    return figs


FIGURES = _figures()


def _sweep_key(curve: Curve, hw: HardwareProfile) -> tuple:
    hw_c = hw.updated(**curve.hw_overrides) if curve.hw_overrides else hw
    return curve.spatial_mux, hw_c, curve.constraints or Constraints()


def solve_sweeps(curves: list[Curve], l_list: list[float], hw: HardwareProfile,
                 bounds: Optional[SearchBounds]) -> dict:
    """The rows of each distinct sweep of one figure call's curves, keyed by
    (spatial_mux, hardware after the curve's overrides, constraints), from
    one sweep_variants call. A curve whose overrides the hardware rejects has
    no key here; it raises on its own turn in curve_rows. A StepCountError
    from a sweep carries, as its curve attribute, the first curve of that
    sweep, whose overrides may have set the clock at fault."""
    keys: dict = {}  # sweep key -> its first curve
    for curve in curves:
        with contextlib.suppress(ValueError):
            keys.setdefault(_sweep_key(curve, hw), curve)
    try:
        return dict(zip(keys, sweep_variants(l_list, list(keys), bounds)))
    except StepCountError as err:
        err.curve = list(keys.values())[err.variant]
        raise


def curve_rows(curve: Curve, hw: HardwareProfile, sweeps: dict) -> list[dict]:
    """One curve's rows from solve_sweeps' sweeps, each reduced to the shared
    CSV columns."""
    return [reduce_row(row, curve.value_field) for row in sweeps[_sweep_key(curve, hw)]]


def reduce_row(row: SweepRow, value_field: str) -> dict:
    if row.result is None:
        return {"L_km": row.l_km, "value": math.nan, "regime": "",
                "n_opt": math.nan, "m_opt": math.nan, "N_o": math.nan,
                "N_m": math.nan, "plob": row.plob}
    rep = row.result.report
    values = {
        "noisy_rate": rep.noisy_rate,
        "m_opt": row.result.m_opt,
        "n_opt": row.result.n_opt,
        "n_o": rep.n_o,
        "n_m": rep.n_m,
    }
    return {
        "L_km": row.l_km,
        "value": values[value_field],
        "regime": rep.regime.value,
        "n_opt": row.result.n_opt,
        "m_opt": row.result.m_opt,
        "N_o": rep.n_o,
        "N_m": rep.n_m,
        "plob": row.plob,
    }
