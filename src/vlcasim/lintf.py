"""Linear-systems core: real polynomials in s, rational transfer functions
with an optional transport delay, frequency sweeps with consistent phase
unwrapping, stability margins, and second-order model fitting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares


class PoleOnAxis(Exception):
    """Denominator vanishes on the imaginary axis at a requested frequency."""


class NoCrossover(Exception):
    """Loop magnitude never crosses unity inside the scanned band."""


class DelayNotClosed(Exception):
    """Composition would need a rational representation of a delay."""


class FitDiverged(Exception):
    """Least-squares fit failed to converge."""


# margin search band [rad/s] and scan density; crossings are refined by
# bisection down to MARGIN_REL_TOL relative frequency resolution
MARGIN_BAND = (1e-2, 1e5)
MARGIN_SCAN_PER_DECADE = 200
MARGIN_REL_TOL = 1e-9

_DEN_FLOOR = 1e-300  # |den(jw)| below this counts as a pole on the axis


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial; coefficients ascending in powers of s."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            coeffs = (0.0,)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        for c in coeffs:
            if not math.isfinite(c):
                raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    def __call__(self, s: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coefficients):
            acc = acc * s + c
        return acc

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        out = [0.0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(tuple(out))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        out = [0.0] * n
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    def scaled(self, k: float) -> "Polynomial":
        return Polynomial(tuple(k * c for c in self.coefficients))


@dataclass(frozen=True)
class DelayedTransferFunction:
    """num/den rational part times exp(-delay_s * s).

    Coefficients are normalized so the denominator's leading coefficient
    is 1; the evaluated response is unchanged by that.
    """

    num: Polynomial
    den: Polynomial
    delay_s: float = 0.0

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("denominator must be nonzero")
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")
        lead = self.den.coefficients[-1]
        if lead != 1.0:
            object.__setattr__(self, "num", self.num.scaled(1.0 / lead))
            object.__setattr__(self, "den", self.den.scaled(1.0 / lead))

    def eval(self, omega: float) -> complex:
        return tf_eval(self, omega)

    def dc_gain(self) -> float:
        """num(0)/den(0); inf if den has a root at the origin."""
        d0 = self.den.coefficients[0]
        n0 = self.num.coefficients[0]
        if d0 == 0.0:
            return math.inf if n0 != 0.0 else math.nan
        return n0 / d0


@dataclass(frozen=True)
class FrequencyResponsePoint:
    omega: float          # [rad/s]
    magnitude: float      # absolute gain
    phase_deg: float      # unwrapped phase [deg]


@dataclass(frozen=True)
class StabilityReport:
    phase_margin_deg: float
    gain_crossover_rad_s: float
    gain_margin_db: float          # +inf when no phase crossover in band
    phase_crossover_rad_s: float   # nan when no phase crossover in band
    crossover_count: int


def tf_eval(tf: DelayedTransferFunction, omega: float) -> complex:
    """Frequency response at omega [rad/s], omega > 0."""
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    s = 1j * omega
    d = tf.den(s)
    if abs(d) < _DEN_FLOOR:
        raise PoleOnAxis(f"denominator vanishes at omega={omega:g} rad/s")
    h = tf.num(s) / d
    if tf.delay_s:
        h *= cmath.exp(-1j * omega * tf.delay_s)
    return h


def _eval_array(tf: DelayedTransferFunction, omegas: np.ndarray) -> np.ndarray:
    s = 1j * omegas
    num = np.polyval(tf.num.coefficients[::-1], s)
    den = np.polyval(tf.den.coefficients[::-1], s)
    if np.any(np.abs(den) < _DEN_FLOOR):
        w_bad = float(omegas[np.argmin(np.abs(den))])
        raise PoleOnAxis(f"denominator vanishes at omega={w_bad:g} rad/s")
    h = num / den
    if tf.delay_s:
        h = h * np.exp(-1j * omegas * tf.delay_s)
    return h


def _low_freq_phase(tf: DelayedTransferFunction, omega: float) -> float:
    # phase of the low-frequency asymptote: the lowest-order nonzero
    # coefficients dominate as omega -> 0
    n0 = next(i for i, c in enumerate(tf.num.coefficients) if c != 0.0) \
        if not tf.num.is_zero else 0
    d0 = next(i for i, c in enumerate(tf.den.coefficients) if c != 0.0)
    lead = tf.num.coefficients[n0] / tf.den.coefficients[d0] if not tf.num.is_zero else 1.0
    base = 0.0 if lead >= 0.0 else math.pi
    return base + (n0 - d0) * (math.pi / 2.0) - omega * tf.delay_s


def _unwrap_with_anchor(phases: np.ndarray, anchor: float) -> np.ndarray:
    out = np.unwrap(phases)
    shift = 2.0 * math.pi * round((anchor - out[0]) / (2.0 * math.pi))
    return out + shift


def bode_sweep(tf: DelayedTransferFunction, omega_min: float, omega_max: float,
               points_per_decade: int = 48) -> list:
    """Log-spaced frequency response; phase unwrapped starting from the
    low-frequency asymptote of the rational part.
    """
    if not (0.0 < omega_min < omega_max):
        raise ValueError("need 0 < omega_min < omega_max")
    if points_per_decade < 8:
        raise ValueError("points_per_decade must be >= 8")
    decades = math.log10(omega_max / omega_min)
    n = max(int(round(decades * points_per_decade)) + 1, 2)
    omegas = np.geomspace(omega_min, omega_max, n)
    # extend a chain below omega_min so the branch of the unwrapped phase is
    # pinned by the asymptote where it is exact
    n_chain = 6 * max(points_per_decade, 16)
    chain = np.geomspace(omega_min * 1e-6, omega_min, n_chain, endpoint=False)
    full = np.concatenate([chain, omegas])
    resp = _eval_array(tf, full)
    anchor = _low_freq_phase(tf, full[0])
    phase = _unwrap_with_anchor(np.angle(resp), anchor)[n_chain:]
    mag = np.abs(resp)[n_chain:]
    return [FrequencyResponsePoint(float(w), float(m), math.degrees(p))
            for w, m, p in zip(omegas, mag, phase)]


def sweep_response(eval_fn: Callable[[float], complex], omega_min: float,
                   omega_max: float, points_per_decade: int = 48) -> list:
    """bode_sweep for a bare evaluator (closed loops, measured responses).

    The phase branch is anchored at a frequency six decades below omega_min,
    where the principal value is taken as-is.
    """
    if not (0.0 < omega_min < omega_max):
        raise ValueError("need 0 < omega_min < omega_max")
    if points_per_decade < 8:
        raise ValueError("points_per_decade must be >= 8")
    decades = math.log10(omega_max / omega_min)
    n = max(int(round(decades * points_per_decade)) + 1, 2)
    omegas = np.geomspace(omega_min, omega_max, n)
    n_chain = 6 * max(points_per_decade, 16)
    chain = np.geomspace(omega_min * 1e-6, omega_min, n_chain, endpoint=False)
    full = np.concatenate([chain, omegas])
    resp = np.array([eval_fn(float(w)) for w in full])
    phase = np.unwrap(np.angle(resp))[n_chain:]
    mag = np.abs(resp)[n_chain:]
    return [FrequencyResponsePoint(float(w), float(m), math.degrees(p))
            for w, m, p in zip(omegas, mag, phase)]


def _walk_phase(tf: DelayedTransferFunction, w_from: float, phase_from: float,
                w_to: float, steps: int = 8) -> float:
    """Continue the unwrapped phase from (w_from, phase_from) to w_to."""
    if w_to == w_from:
        return phase_from
    ws = np.geomspace(w_from, w_to, steps + 1)[1:]
    prev = phase_from
    for w in ws:
        raw = cmath.phase(tf_eval(tf, float(w)))
        # pick the branch closest to the running phase
        k = round((prev - raw) / (2.0 * math.pi))
        prev = raw + 2.0 * math.pi * k
    return prev


def stability_margins(open_loop: DelayedTransferFunction) -> StabilityReport:
    """Gain/phase margins from a dense scan of MARGIN_BAND plus bisection.

    Phase margin is reported at the unity-magnitude crossing with the
    smallest margin; gain margin at the -180 deg (mod 360) crossing with
    the least attenuation. Raises NoCrossover when |L| never crosses 1.
    """
    w_lo, w_hi = MARGIN_BAND
    per_decade = MARGIN_SCAN_PER_DECADE
    if open_loop.delay_s > 0.0:
        # keep per-grid-cell phase change below pi at the top of the band
        need = 0.8 * w_hi * open_loop.delay_s * math.log(10.0) / math.pi
        per_decade = max(per_decade, int(math.ceil(need)))
    decades = math.log10(w_hi / w_lo)
    n = int(round(decades * per_decade)) + 1
    omegas = np.geomspace(w_lo, w_hi, n)
    resp = _eval_array(open_loop, omegas)
    mag = np.abs(resp)
    anchor = _low_freq_phase(open_loop, omegas[0] * 1e-6)
    n_chain = 6 * 32
    chain = np.geomspace(w_lo * 1e-6, w_lo, n_chain, endpoint=False)
    resp_chain = _eval_array(open_loop, chain)
    phase_full = _unwrap_with_anchor(
        np.angle(np.concatenate([resp_chain, resp])), anchor)
    phase = phase_full[n_chain:]

    # ---- unity-magnitude crossings -> phase margin candidates
    gm_sign = mag - 1.0
    pm_candidates = []  # (pm_deg, w_cross)
    for i in range(n - 1):
        if gm_sign[i] == 0.0:
            pm = 180.0 + math.degrees(phase[i])
            pm_candidates.append((pm, float(omegas[i])))
            continue
        if gm_sign[i] * gm_sign[i + 1] < 0.0:
            a, b = float(omegas[i]), float(omegas[i + 1])
            fa = gm_sign[i]
            while (b - a) / a > MARGIN_REL_TOL:
                m = math.sqrt(a * b)
                fm = abs(tf_eval(open_loop, m)) - 1.0
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            w_c = math.sqrt(a * b)
            ph_c = _walk_phase(open_loop, float(omegas[i]), float(phase[i]), w_c)
            pm_candidates.append((180.0 + math.degrees(ph_c), w_c))
    if gm_sign[-1] == 0.0:
        pm_candidates.append((180.0 + math.degrees(phase[-1]), float(omegas[-1])))
    if not pm_candidates:
        raise NoCrossover("loop magnitude never crosses unity in the scan band")
    pm, w_gc = min(pm_candidates, key=lambda t: t[0])

    # ---- -180 deg (mod 360) crossings -> gain margin candidates
    gm_candidates = []  # (gm_db, w_cross)
    ph_lo, ph_hi = float(np.min(phase)), float(np.max(phase))
    k_min = int(math.floor((-ph_hi - math.pi) / (2.0 * math.pi)))
    k_max = int(math.ceil((-ph_lo - math.pi) / (2.0 * math.pi)))
    targets = [-math.pi - 2.0 * math.pi * k for k in range(k_min, k_max + 1)]
    for target in targets:
        d = phase - target
        for i in range(n - 1):
            hit = d[i] == 0.0 or d[i] * d[i + 1] < 0.0
            if not hit:
                continue
            if d[i] == 0.0:
                w_pc, m_pc = float(omegas[i]), float(mag[i])
            else:
                a, b = float(omegas[i]), float(omegas[i + 1])
                pa = float(phase[i])
                fa = pa - target
                ph_a = pa
                while (b - a) / a > MARGIN_REL_TOL:
                    m = math.sqrt(a * b)
                    ph_m = _walk_phase(open_loop, a, ph_a, m)
                    fm = ph_m - target
                    if fa * fm <= 0.0:
                        b = m
                    else:
                        a, fa, ph_a = m, fm, ph_m
                w_pc = math.sqrt(a * b)
                m_pc = abs(tf_eval(open_loop, w_pc))
            if m_pc > 0.0:
                gm_candidates.append((-20.0 * math.log10(m_pc), w_pc))
    if gm_candidates:
        gm_db, w_pc = min(gm_candidates, key=lambda t: t[0])
    else:
        gm_db, w_pc = math.inf, math.nan

    return StabilityReport(phase_margin_deg=pm, gain_crossover_rad_s=w_gc,
                           gain_margin_db=gm_db, phase_crossover_rad_s=w_pc,
                           crossover_count=len(pm_candidates))


def _strip_shared_origin_roots(num: Polynomial, den: Polynomial):
    a, b = list(num.coefficients), list(den.coefficients)
    while len(a) > 1 and len(b) > 1 and a[0] == 0.0 and b[0] == 0.0:
        a.pop(0)
        b.pop(0)
    return Polynomial(tuple(a)), Polynomial(tuple(b))


def compose(kind: str, a: DelayedTransferFunction,
            b: DelayedTransferFunction) -> DelayedTransferFunction:
    """series | parallel | unity_feedback composition.

    parallel and unity_feedback require both operands delay-free, since the
    result could not stay rational otherwise (DelayNotClosed). Exactly-shared
    factors of s at the origin are cancelled.
    """
    if kind == "series":
        num = a.num * b.num
        den = a.den * b.den
        num, den = _strip_shared_origin_roots(num, den)
        return DelayedTransferFunction(num, den, a.delay_s + b.delay_s)
    if kind in ("parallel", "unity_feedback"):
        if a.delay_s != 0.0 or b.delay_s != 0.0:
            raise DelayNotClosed(f"{kind} composition requires delay-free operands")
        if kind == "parallel":
            num = a.num * b.den + b.num * a.den
            den = a.den * b.den
        else:  # a / (1 + a*b)
            num = a.num * b.den
            den = a.den * b.den + a.num * b.num
        num, den = _strip_shared_origin_roots(num, den)
        return DelayedTransferFunction(num, den, 0.0)
    raise ValueError(f"unknown composition kind: {kind!r}")


@dataclass(frozen=True)
class SecondOrderFit:
    gain: float       # DC gain k
    omega_n: float    # [rad/s]
    zeta: float       # damping ratio

    def eval(self, omega: float) -> complex:
        s = 1j * omega
        wn = self.omega_n
        return self.gain * wn * wn / (s * s + 2.0 * self.zeta * wn * s + wn * wn)


def _second_order_response(k, wn, zeta, w):
    mag = k * wn * wn / np.sqrt((wn * wn - w * w) ** 2 + (2.0 * zeta * wn * w) ** 2)
    ph = -np.arctan2(2.0 * zeta * wn * w, wn * wn - w * w)  # in (-pi, 0)
    return mag, ph


def fit_second_order(points: Sequence[FrequencyResponsePoint],
                     phase_weight: float = 0.5) -> SecondOrderFit:
    """Fit k*wn^2/(s^2 + 2*zeta*wn*s + wn^2) to measured response points.

    Minimizes squared log-magnitude error plus phase_weight-scaled phase
    error. Needs >= 10 points spanning at least a decade around the peak.
    """
    if len(points) < 10:
        raise ValueError("need at least 10 frequency points")
    w = np.array([p.omega for p in points], dtype=float)
    mag = np.array([p.magnitude for p in points], dtype=float)
    ph = np.radians([p.phase_deg for p in points])
    if np.any(w <= 0.0) or np.any(mag <= 0.0):
        raise ValueError("frequencies and magnitudes must be positive")
    if w.max() / w.min() < 10.0:
        raise ValueError("points must span at least one decade")

    k0 = float(mag[np.argmin(w)])
    i_pk = int(np.argmax(mag))
    wn0 = float(w[i_pk])
    ratio = float(mag[i_pk]) / k0
    if ratio > 1.02:
        z0 = min(max(1.0 / (2.0 * ratio), 0.02), 1.5)
    else:
        z0 = 0.8
        # no visible peak: put wn where the phase passes -90 deg
        wn0 = float(w[np.argmin(np.abs(ph + math.pi / 2.0))])

    def residual(theta):
        k, wn, zeta = np.exp(theta)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m_m, p_m = _second_order_response(k, wn, zeta, w)
            return np.concatenate([np.log(m_m / mag),
                                   phase_weight * (p_m - ph)])

    try:
        res = least_squares(residual, np.log([k0, wn0, z0]), method="lm",
                            xtol=1e-14, ftol=1e-14, max_nfev=5000)
    except ValueError as exc:
        # the solver cannot even start descending on this data
        raise FitDiverged(f"second-order fit could not proceed: {exc}") from exc
    if not res.success or not np.all(np.isfinite(res.x)):
        raise FitDiverged("second-order fit did not converge")
    k, wn, zeta = np.exp(res.x)
    return SecondOrderFit(gain=float(k), omega_n=float(wn), zeta=float(zeta))


def zoh_discretize(a, b, dt: float):
    """Exact discretization of x' = A x + B u with u held constant over each
    step of dt: x[k+1] = Ad x[k] + Bd u[k]. Both blocks come from one
    exponential of the augmented matrix [[A, B], [0, 0]] dt (C. F. Van Loan,
    IEEE TAC 1978)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(len(a), -1)
    n, m = b.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    e = expm(aug * dt)
    return e[:n, :n], e[:n, n:]


FRF_CSV_HEADER = "omega_rad_s,magnitude,phase_deg"


def frf_to_csv(points: Sequence[FrequencyResponsePoint]) -> str:
    lines = [FRF_CSV_HEADER]
    for p in points:
        lines.append(f"{p.omega:.10g},{p.magnitude:.10g},{p.phase_deg:.10g}")
    return "\n".join(lines) + "\n"


def frf_from_csv(text: str) -> list:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FRF_CSV_HEADER:
        raise ValueError("bad frequency-response CSV header")
    out = []
    for ln in lines[1:]:
        w, m, p = (float(tok) for tok in ln.split(","))
        out.append(FrequencyResponsePoint(w, m, p))
    return out
