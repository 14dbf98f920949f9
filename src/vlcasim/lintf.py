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


def _rational_array(tf: DelayedTransferFunction, omegas: np.ndarray) -> np.ndarray:
    """num/den at each omega, without the delay factor."""
    s = 1j * omegas
    num = np.polyval(tf.num.coefficients[::-1], s)
    den = np.polyval(tf.den.coefficients[::-1], s)
    if np.any(np.abs(den) < _DEN_FLOOR):
        w_bad = float(omegas[np.argmin(np.abs(den))])
        raise PoleOnAxis(f"denominator vanishes at omega={w_bad:g} rad/s")
    return num / den


def _low_freq_phase(tf: DelayedTransferFunction) -> float:
    # phase of the rational part's low-frequency asymptote: the lowest-order
    # nonzero coefficients dominate as omega -> 0
    n0 = next(i for i, c in enumerate(tf.num.coefficients) if c != 0.0) \
        if not tf.num.is_zero else 0
    d0 = next(i for i, c in enumerate(tf.den.coefficients) if c != 0.0)
    lead = tf.num.coefficients[n0] / tf.den.coefficients[d0] if not tf.num.is_zero else 1.0
    base = 0.0 if lead >= 0.0 else math.pi
    return base + (n0 - d0) * (math.pi / 2.0)


def _unwrap_with_anchor(phases: np.ndarray, anchor: float) -> np.ndarray:
    out = np.unwrap(phases)
    shift = 2.0 * math.pi * round((anchor - out[0]) / (2.0 * math.pi))
    return out + shift


def _sweep_grid(omega_min: float, omega_max: float, points_per_decade: int):
    """Log grid over [omega_min, omega_max] preceded by a chain reaching six
    decades below omega_min, along which the phase is unwrapped from where
    its branch is known. Returns (chain + grid, number of chain points)."""
    if not (0.0 < omega_min < omega_max):
        raise ValueError("need 0 < omega_min < omega_max")
    if points_per_decade < 8:
        raise ValueError("points_per_decade must be >= 8")
    decades = math.log10(omega_max / omega_min)
    n = max(int(round(decades * points_per_decade)) + 1, 2)
    omegas = np.geomspace(omega_min, omega_max, n)
    n_chain = 6 * max(points_per_decade, 16)
    chain = np.geomspace(omega_min * 1e-6, omega_min, n_chain, endpoint=False)
    return np.concatenate([chain, omegas]), n_chain


def _sweep_points(omegas, resp, phase) -> list:
    return [FrequencyResponsePoint(float(w), float(m), math.degrees(p))
            for w, m, p in zip(omegas, np.abs(resp), phase)]


def bode_sweep(tf: DelayedTransferFunction, omega_min: float, omega_max: float,
               points_per_decade: int = 48) -> list:
    """Log-spaced frequency response; phase unwrapped starting from the
    low-frequency asymptote of the rational part.
    """
    full, n_chain = _sweep_grid(omega_min, omega_max, points_per_decade)
    resp = _rational_array(tf, full)
    if tf.delay_s:
        resp = resp * np.exp(-1j * full * tf.delay_s)
    anchor = _low_freq_phase(tf) - full[0] * tf.delay_s
    phase = _unwrap_with_anchor(np.angle(resp), anchor)
    return _sweep_points(full[n_chain:], resp[n_chain:], phase[n_chain:])


def sweep_response(eval_fn: Callable[[float], complex], omega_min: float,
                   omega_max: float, points_per_decade: int = 48) -> list:
    """bode_sweep for a bare evaluator (closed loops, measured responses).

    The phase branch is anchored at a frequency six decades below omega_min,
    where the principal value is taken as-is.
    """
    full, n_chain = _sweep_grid(omega_min, omega_max, points_per_decade)
    resp = np.array([eval_fn(float(w)) for w in full])
    phase = np.unwrap(np.angle(resp))
    return _sweep_points(full[n_chain:], resp[n_chain:], phase[n_chain:])


def _bisect(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Refine every bracket [a, b] of a sign change of f at once.

    f(w, idx) evaluates the brackets idx at the trial frequencies w. Each
    bracket halves in log frequency until (b - a)/a <= MARGIN_REL_TOL;
    returns the geometric midpoints.
    """
    a, b, fa = a.copy(), b.copy(), fa.copy()
    live = np.flatnonzero((b - a) / a > MARGIN_REL_TOL)
    while live.size:
        m = np.sqrt(a[live] * b[live])
        fm = f(m, live)
        left = fa[live] * fm <= 0.0
        b[live[left]] = m[left]
        a[live[~left]] = m[~left]
        fa[live[~left]] = fm[~left]
        live = live[(b[live] - a[live]) / a[live] > MARGIN_REL_TOL]
    return np.sqrt(a * b)


def stability_margins(open_loop: DelayedTransferFunction) -> StabilityReport:
    """Gain/phase margins from a scan of MARGIN_BAND plus bisection.

    Phase margin is reported at the unity-magnitude crossing with the
    smallest margin; gain margin at the -180 deg (mod 360) crossing with
    the least attenuation. Raises NoCrossover when |L| never crosses 1.

    The delay factor exp(-sT) leaves |L| alone and subtracts omega*T from
    the phase, so only the rational part is evaluated and unwrapped on the
    fixed grid (MARGIN_SCAN_PER_DECADE points per decade) and the delay
    enters by arithmetic. Each grid cell holds as many -180 deg crossings
    as there are levels 2*pi*k - pi between its endpoint phases. The scan
    assumes that |L| - 1 changes sign at most once in a cell and that the
    phase is monotone across every crossing's cell.
    """
    full, n_chain = _sweep_grid(*MARGIN_BAND, MARGIN_SCAN_PER_DECADE)
    h_full = _rational_array(open_loop, full)
    rat_full = _unwrap_with_anchor(np.angle(h_full), _low_freq_phase(open_loop))
    omegas, rat = full[n_chain:], rat_full[n_chain:]
    mag = np.abs(h_full[n_chain:])
    delay = open_loop.delay_s
    phase = rat - omegas * delay

    def phase_at(w, cell):
        # the rational phase takes its branch from the cell's left grid point
        raw = np.angle(_rational_array(open_loop, w))
        k = np.round((rat[cell] - raw) / (2.0 * math.pi))
        return raw + 2.0 * math.pi * k - w * delay

    # ---- unity-magnitude crossings -> phase margin candidates
    f = mag - 1.0
    on_grid = np.flatnonzero(f == 0.0)
    cells = np.flatnonzero(f[:-1] * f[1:] < 0.0)
    w_c = _bisect(lambda w, i: np.abs(_rational_array(open_loop, w)) - 1.0,
                  omegas[cells], omegas[cells + 1], f[cells])
    w_gc = np.concatenate([omegas[on_grid], w_c])
    if not w_gc.size:
        raise NoCrossover("loop magnitude never crosses unity in the scan band")
    pm = 180.0 + np.degrees(np.concatenate([phase[on_grid], phase_at(w_c, cells)]))
    best = int(np.argmin(pm))

    # ---- -180 deg (mod 360) crossings -> gain margin candidates; level k
    # of u = (phase + pi)/2pi is the target 2*pi*k - pi
    u = (phase + math.pi) / (2.0 * math.pi)
    on_level = np.flatnonzero(u[:-1] == np.floor(u[:-1]))
    lo = np.floor(np.minimum(u[:-1], u[1:]))
    hi = np.ceil(np.maximum(u[:-1], u[1:]))
    per_cell = np.maximum(hi - lo - 1.0, 0.0).astype(np.int64)
    cells = np.repeat(np.arange(per_cell.size), per_cell)
    first = np.cumsum(per_cell) - per_cell
    levels = lo[cells] + 1.0 + (np.arange(cells.size) - first[cells])
    target = 2.0 * math.pi * levels - math.pi
    w_x = _bisect(lambda w, i: phase_at(w, cells[i]) - target[i],
                  omegas[cells], omegas[cells + 1], phase[cells] - target)
    w_pc = np.concatenate([omegas[on_level], w_x])
    m_pc = np.concatenate([mag[on_level], np.abs(_rational_array(open_loop, w_x))])
    keep = m_pc > 0.0
    if keep.any():
        gm = -20.0 * np.log10(m_pc[keep])
        i_gm = int(np.argmin(gm))
        gm_db, w_gm = float(gm[i_gm]), float(w_pc[keep][i_gm])
    else:
        gm_db, w_gm = math.inf, math.nan

    return StabilityReport(phase_margin_deg=float(pm[best]),
                           gain_crossover_rad_s=float(w_gc[best]),
                           gain_margin_db=gm_db, phase_crossover_rad_s=w_gm,
                           crossover_count=int(w_gc.size))


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
