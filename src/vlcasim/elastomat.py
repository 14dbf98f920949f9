"""Candidate spring-element materials: bench-test records,
stress-relaxation fitting, chirp-based damping estimation, and weighted
ranking for selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lintf import (FrequencyResponsePoint, csv_table, fit_second_order,
                    least_squares_lm, require_finite)


class AllExcluded(Exception):
    """Every record was excluded from the ranking."""


@dataclass(frozen=True)
class MaterialRecord:
    """One bench-tested candidate; None marks a quantity that was not
    measured for that sample."""

    name: str
    compression_set_pct: Optional[float]   # residual set after compression [%]
    linearity_r2: float                    # force-deflection linearity [-]
    stiffness_n_per_mm: float              # preloaded linear stiffness [N/mm]
    modulus_n_per_mm2: Optional[float]     # preloaded modulus [N/mm^2]
    damping_ns_per_m: Optional[float]      # identified damping [N*s/m]
    creep_pct: Optional[float]             # load loss over the dwell test [%]
    cost_usd: Optional[float]              # per tested pad set [USD]

    def __post_init__(self):
        if not self.name:
            raise ValueError("name must be nonempty")
        if not 0.0 <= self.linearity_r2 <= 1.0:
            raise ValueError("linearity_r2 must be within [0, 1]")
        if self.stiffness_n_per_mm <= 0.0:
            raise ValueError("stiffness_n_per_mm must be > 0")
        for attr in ("compression_set_pct", "creep_pct"):
            v = getattr(self, attr)
            if v is not None and not 0.0 <= v <= 100.0:
                raise ValueError(f"{attr} must be within [0, 100] when present")
        for attr in ("modulus_n_per_mm2", "damping_ns_per_m", "cost_usd"):
            v = getattr(self, attr)
            if v is not None and v < 0.0:
                raise ValueError(f"{attr} must be >= 0 when present")


def builtin_materials() -> list:
    """The eight bench-tested candidates, in test order."""
    rows = [
        ("Spring steel",            0.0,  0.996,   860.8,  None,    0.0,    0.0,   None),
        ("Polyurethane 90A",        2.0,  0.992,  8109.0, 112.5, 16000.0,  15.3,  19.40),
        ("Reinforced silicone 70A", 2.7,  0.978, 57570.0, 798.7, 242000.0, None,  29.08),
        ("Buna-N 90A",              2.8,  0.975, 11270.0, 156.4, 29000.0,  25.0,  51.47),
        ("Viton 75A",               4.0,  0.963,  2430.0,  33.7,  9000.0,  30.14, 105.62),
        ("Polyurethane 80A",        4.5,  0.993,  2266.0,  31.4,  4000.0,  16.8,  19.40),
        ("EPDM 80A",                6.48, 0.939,  6499.0,  90.2, 16000.0,  23.4,  35.28),
        ("Silicone 90A",            None, 0.983, 12460.0, 172.9, 37000.0,  10.7,  29.41),
    ]
    return [MaterialRecord(*row) for row in rows]


# ------------------------------------------------------------- fitting

@dataclass(frozen=True)
class RelaxationFit:
    """Dwell-test model F(t) = f0 * (1 - creep * (1 - exp(-t/tau)))."""

    f0: float          # initial hold force [N]
    creep_fraction: float
    tau_s: float

    @property
    def creep_pct(self) -> float:
        return 100.0 * self.creep_fraction

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return self.f0 * (1.0 - self.creep_fraction * (1.0 - np.exp(-t / self.tau_s)))


def fit_stress_relaxation(t_s: Sequence[float],
                          force_n: Sequence[float]) -> RelaxationFit:
    """Fit the saturating-exponential dwell model to a relaxation record.

    Needs a record reaching well past the knee: first sample within a
    second of the hold, span of at least 100 s.
    """
    t = np.asarray(t_s, dtype=float)
    f = np.asarray(force_n, dtype=float)
    if t.shape != f.shape or t.ndim != 1 or len(t) < 8:
        raise ValueError("need matching vectors of at least 8 samples")
    require_finite(t_s=t, force_n=f)
    if t[0] > 1.0 or (t[-1] - t[0]) < 100.0:
        raise ValueError("record must start near the hold and span >= 100 s")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must increase")
    if float(np.ptp(f)) == 0.0:
        # constant force: no relaxation at all
        return RelaxationFit(f0=float(f[0]), creep_fraction=0.0, tau_s=1.0)
    f0_guess = float(f[0])
    c_guess = min(max(1.0 - float(f[-1]) / f0_guess, 1e-4), 0.95)
    # crude knee estimate: time of 63% of the total drop
    drop = f0_guess - f
    knee = drop >= 0.63 * drop[-1]
    tau_guess = float(t[np.argmax(knee)]) if knee.any() else float(t[-1]) / 5.0
    tau_guess = max(tau_guess, 1e-2)

    def residual(theta):
        f0, c, log_tau = theta
        return RelaxationFit(f0, c, math.exp(log_tau)).eval(t) - f

    f0, c, log_tau = least_squares_lm(
        residual, (f0_guess, c_guess, math.log(tau_guess)), "relaxation")
    return RelaxationFit(f0=float(f0), creep_fraction=float(c),
                         tau_s=float(math.exp(log_tau)))


def estimate_damping_from_chirp(points: Sequence[FrequencyResponsePoint],
                                moving_mass_kg: float,
                                stiffness_n_per_m: Optional[float] = None,
                                testbed_damping: float = 8000.0) -> float:
    """Material damping from a measured frequency response [N*s/m].

    Fits a second-order model, converts the fitted damping ratio to total
    viscous damping, and subtracts the rig's own share (drivetrain
    friction), floored at zero. When the bench stiffness is known it
    anchors the conversion instead of the fitted natural frequency.
    """
    if moving_mass_kg <= 0.0:
        raise ValueError("moving_mass_kg must be > 0")
    if stiffness_n_per_m is not None and stiffness_n_per_m <= 0.0:
        raise ValueError("stiffness_n_per_m must be > 0 when given")
    if testbed_damping < 0.0:
        raise ValueError("testbed_damping must be >= 0")
    fit = fit_second_order(points)
    if stiffness_n_per_m is not None:
        b_total = 2.0 * fit.zeta * math.sqrt(stiffness_n_per_m * moving_mass_kg)
    else:
        b_total = 2.0 * fit.zeta * fit.omega_n * moving_mass_kg
    return max(b_total - testbed_damping, 0.0)


# ------------------------------------------------------------- ranking

# criterion name -> (record attribute, higher_is_better)
RANK_CRITERIA = {
    "linearity": ("linearity_r2", True),
    "compression_set": ("compression_set_pct", False),
    "creep": ("creep_pct", False),
    "damping": ("damping_ns_per_m", True),
    "cost": ("cost_usd", False),
}


@dataclass(frozen=True)
class RankingResult:
    ranked: tuple      # ((name, score), ...) best first
    excluded: tuple    # ((name, reason), ...)


def rank_materials(records: Sequence[MaterialRecord], weights: dict,
                   min_damping: Optional[float] = None) -> RankingResult:
    """Weighted min-max scoring over the named criteria.

    Records missing any actively weighted quantity are excluded and
    reported, as are records under min_damping when damping is weighted.
    Scores are normalized by the total weight, so a lone record scores 1
    and rescaling the weight vector never changes the ordering. Ties break
    by name.
    """
    unknown = set(weights) - set(RANK_CRITERIA)
    if unknown:
        raise ValueError(f"unknown ranking criteria: {sorted(unknown)}")
    if any(w < 0.0 for w in weights.values()):
        raise ValueError("weights must be >= 0")
    active = {k: w for k, w in weights.items() if w > 0.0}
    if not active:
        raise ValueError("at least one weight must be > 0")

    excluded = []
    kept = []
    for rec in records:
        reason = next((f"missing {crit}" for crit in active
                       if getattr(rec, RANK_CRITERIA[crit][0]) is None), None)
        if reason is None and min_damping is not None and "damping" in active:
            if (rec.damping_ns_per_m or 0.0) < min_damping:
                reason = f"damping below {min_damping:g} N*s/m"
        if reason is None:
            kept.append(rec)
        else:
            excluded.append((rec.name, reason))
    if not kept:
        raise AllExcluded("no record satisfies the weighted criteria")

    scores = np.zeros(len(kept))
    for crit, w in active.items():
        attr, higher = RANK_CRITERIA[crit]
        vals = np.array([getattr(r, attr) for r in kept], dtype=float)
        span = float(vals.max() - vals.min())
        if span == 0.0:
            norm = np.ones(len(kept))
        elif higher:
            norm = (vals - vals.min()) / span
        else:
            norm = (vals.max() - vals) / span
        scores += w * norm
    scores /= sum(active.values())
    order = sorted(range(len(kept)), key=lambda i: (-scores[i], kept[i].name))
    ranked = tuple((kept[i].name, float(scores[i])) for i in order)
    return RankingResult(ranked=ranked, excluded=tuple(excluded))


# ----------------------------------------------------------------- csv

MATERIALS_CSV_HEADER = ("name,compression_set_pct,linearity_r2,"
                        "stiffness_n_per_mm,modulus_n_per_mm2,"
                        "damping_ns_per_m,creep_pct,cost_usd")


def materials_to_csv(records: Sequence[MaterialRecord]) -> str:
    # the header fields are the record's attribute names
    return csv_table(MATERIALS_CSV_HEADER, [
        [getattr(r, name) for r in records]
        for name in MATERIALS_CSV_HEADER.split(",")])
