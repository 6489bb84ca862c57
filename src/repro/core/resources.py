"""FPGA resource model (Table 3).

The paper reports post-implementation resource consumption on the
VCU128 for the accelerator baseline and for SmartDS with 1/2/4/6 ports.
Each additional port replicates the extended RoCE instance and its
compression engine, so consumption is linear in the port count; this
module reproduces the published rows exactly and interpolates the port
counts the paper does not list.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class FpgaResources:
    """LUTs/registers in thousands, BRAM blocks."""

    luts_k: float
    regs_k: float
    brams: int

    def __add__(self, other: "FpgaResources") -> "FpgaResources":
        return FpgaResources(
            self.luts_k + other.luts_k, self.regs_k + other.regs_k, self.brams + other.brams
        )


#: Total resources of the VCU128 part, derived from Table 3's percentages
#: (e.g. SmartDS-1 uses 157 kLUT = 12.0 %).
VCU128_TOTALS = FpgaResources(luts_k=1304, regs_k=2607, brams=2016)

#: Table 3, "Acc": the standalone accelerator design on the U280/VCU128.
ACC_RESOURCES = FpgaResources(luts_k=112, regs_k=109, brams=172)

#: Table 3, SmartDS rows as published.
_SMARTDS_ROWS: dict[int, FpgaResources] = {
    1: FpgaResources(157, 143, 292),
    2: FpgaResources(313, 285, 584),
    4: FpgaResources(627, 571, 1168),
    6: FpgaResources(941, 857, 1752),
}


def design_resources(name: str, n_ports: int = 1) -> FpgaResources:
    """Resource consumption of a design, per Table 3.

    `name` is ``"acc"`` or ``"smartds"``; for SmartDS, port counts the
    paper does not list are linearly interpolated from the published
    rows (consumption is one instance per port).
    """
    key = name.lower()
    if key == "acc":
        return ACC_RESOURCES
    if key != "smartds":
        raise ValueError(f"unknown design {name!r}; expected 'acc' or 'smartds'")
    if not 1 <= n_ports <= 6:
        raise ValueError(f"SmartDS port count must be 1..6, got {n_ports}")
    if n_ports in _SMARTDS_ROWS:
        return _SMARTDS_ROWS[n_ports]
    # Interpolate between the published neighbours.
    below = max(p for p in _SMARTDS_ROWS if p < n_ports)
    above = min(p for p in _SMARTDS_ROWS if p > n_ports)
    weight = (n_ports - below) / (above - below)
    low, high = _SMARTDS_ROWS[below], _SMARTDS_ROWS[above]
    return FpgaResources(
        luts_k=round(low.luts_k + (high.luts_k - low.luts_k) * weight),
        regs_k=round(low.regs_k + (high.regs_k - low.regs_k) * weight),
        brams=round(low.brams + (high.brams - low.brams) * weight),
    )


def utilization(resources: FpgaResources) -> dict[str, float]:
    """Fractions of the VCU128 consumed (Table 3's percentages)."""
    return {
        "luts": resources.luts_k / VCU128_TOTALS.luts_k,
        "regs": resources.regs_k / VCU128_TOTALS.regs_k,
        "brams": resources.brams / VCU128_TOTALS.brams,
    }

