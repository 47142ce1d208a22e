"""Canned distance-sweep families for the figure subcommand.

Each figure id maps to a fixed set of curves. A curve is a distance sweep of
the optimizer under specific hardware overrides and constraints, reduced to
one value column. row_values gives a sweep row's cells in CSV_COLUMNS
order, for these curves and for the plain sweep subcommand alike.
A figure call hands every curve's variant, curve_variant's (spatial_mux,
hardware after the curve's overrides, constraints), to one
optimize.sweep_variants call, which solves equal variants once and gives
the variants that differ only in spatial_mux, noise (eps_g, f0), n_o_max
and n_m_max one row solve: fig2-fig9 are 59 curves over 23 distinct
variants, and `figure all` solves them in 7 row solves. The figure command
holds a call's rows for a later call with the same variants, so the eight
ids one at a time in one process take 8: fig3-fig6 are fig2's nine sweeps,
each read for another value column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .model import Constraints, HardwareProfile

if TYPE_CHECKING:  # the table is built without loading the optimizer
    from .optimize import SweepRow

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


FIGURES: dict[str, tuple[str, list[Curve]]] = {
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


def curve_variant(curve: Curve, hw: HardwareProfile) -> tuple:
    """The curve's (spatial_mux, hardware after its overrides, constraints),
    as optimize.sweep_variants takes a variant; raises ValueError when the
    hardware rejects the overrides."""
    hw_c = hw.updated(**curve.hw_overrides) if curve.hw_overrides else hw
    return curve.spatial_mux, hw_c, curve.constraints


def curve_rows(curve: Curve, rows: list[SweepRow]) -> list[tuple]:
    """The curve's sweep rows as row_values tuples."""
    return [row_values(row, curve.value_field) for row in rows]


def row_values(row: SweepRow, value_field: str) -> tuple:
    """A sweep row's values in CSV_COLUMNS order, value_field in the value
    column; an infeasible row is NaN but for its distance and PLOB bound."""
    if row.result is None:
        return row.l_km, math.nan, "", math.nan, math.nan, math.nan, math.nan, row.plob
    res, rep = row.result, row.result.report
    value = getattr(res if value_field.endswith("_opt") else rep, value_field)
    return (row.l_km, value, rep.regime.value, res.n_opt, res.m_opt, rep.n_o, rep.n_m,
            row.plob)
