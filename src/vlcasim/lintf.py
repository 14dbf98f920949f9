"""Linear-systems core: real polynomials in s, rational transfer functions
with an optional transport delay, frequency sweeps with consistent phase
unwrapping, stability margins, and second-order model fitting; also the
one CSV table writer that every output file goes through.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy


class PoleOnAxis(Exception):
    """Denominator vanishes on the imaginary axis at a requested frequency."""


class NoCrossover(Exception):
    """Loop magnitude never crosses unity inside the scanned band."""


class FitDiverged(Exception):
    """Least-squares fit failed to converge."""


# margin search band [rad/s] and scan density; crossings are refined by
# regula falsi down to MARGIN_REL_TOL relative frequency resolution
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
    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    def __call__(self, s):
        """Value at s, a complex number or an array of them."""
        return np.polyval(self.coefficients[::-1], s)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coefficients, other.coefficients))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        # numpy.polynomial's ascending polyadd is a lazily imported
        # subpackage of its own; np.polyadd takes descending coefficients
        return Polynomial(np.polyadd(self.coefficients[::-1],
                                     other.coefficients[::-1])[::-1])

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
            # the lead is stored as exactly 1, which lead * (1/lead) need not
            # round to, so that normalizing again (dataclasses.replace)
            # leaves the coefficients alone
            den = self.den.scaled(1.0 / lead).coefficients[:-1] + (1.0,)
            object.__setattr__(self, "den", Polynomial(den))

    def eval(self, omega):
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


def tf_eval(tf: DelayedTransferFunction, omega):
    """Frequency response at omega [rad/s], a float or an array of them,
    each > 0."""
    if np.any(np.asarray(omega) <= 0.0):
        raise ValueError("omega must be > 0")
    h, den_abs = _rational_array(np.array(tf.num.coefficients[::-1]),
                                 np.array(tf.den.coefficients[::-1]),
                                 1j * omega)
    pole = _pole_on_axis(den_abs, omega)
    if pole:
        raise PoleOnAxis(pole)
    h = h[()]
    return h * np.exp(-1j * omega * tf.delay_s) if tf.delay_s else h


def _descending(polys) -> np.ndarray:
    """The polynomials' coefficients, highest power first, one row each and
    zero-padded in front to a common length: Horner's rule runs through
    leading zeros without changing a bit of the value."""
    width = max(len(p.coefficients) for p in polys)
    rows = np.zeros((len(polys), width))
    for row, p in zip(rows, polys):
        row[width - len(p.coefficients):] = p.coefficients[::-1]
    return rows


def _horner(rows, s) -> np.ndarray:
    """Each row of descending coefficients at s, rows and s broadcast
    against each other, in place and in np.polyval's operation order."""
    # complex coefficients, as np.polyval's additions promote them, spare
    # the additions a cast buffer as large as the result
    rows = np.asarray(rows, complex)
    y = np.zeros(np.broadcast(rows[..., 0], s).shape, complex)
    for k in range(rows.shape[-1]):
        y *= s
        y += rows[..., k]
    return y


def _rational_array(num, den, s):
    """num/den at s = j*omega, each given as rows of descending coefficients
    that broadcast against s, and |den| there for the caller's PoleOnAxis
    check, or None where den clears the floor everywhere; where it does not,
    the quotient is num itself."""
    d = _horner(den, s)
    den_abs = np.abs(d)
    pole = den_abs < _DEN_FLOOR
    if pole.any():
        d[pole] = 1.0
    else:
        den_abs = None
    h = _horner(num, s)
    h /= d
    return h, den_abs


def _pole_on_axis(den_abs, omegas):
    """The PoleOnAxis message for |den| at omegas, as _rational_array gives
    it, naming the omega where it is least; None when it clears the floor
    everywhere."""
    if den_abs is None or not np.any(den_abs < _DEN_FLOOR):
        return None
    w_bad = float(np.ravel(omegas)[np.argmin(den_abs)])
    return f"denominator vanishes at omega={w_bad:g} rad/s"


def _low_freq_phase(tf: DelayedTransferFunction) -> float:
    # phase of the rational part's low-frequency asymptote: the lowest-order
    # nonzero coefficients dominate as omega -> 0
    n0 = next(i for i, c in enumerate(tf.num.coefficients) if c != 0.0) \
        if not tf.num.is_zero else 0
    d0 = next(i for i, c in enumerate(tf.den.coefficients) if c != 0.0)
    lead = tf.num.coefficients[n0] / tf.den.coefficients[d0] if not tf.num.is_zero else 1.0
    base = 0.0 if lead >= 0.0 else math.pi
    return base + (n0 - d0) * (math.pi / 2.0)


def _unwrap_with_anchor(phases: np.ndarray, anchor) -> np.ndarray:
    """Each row of phases unwrapped, then moved by whole turns to start
    nearest its anchor (a float, or a column of them for several rows)."""
    out = np.unwrap(phases)
    out += 2.0 * math.pi * np.round((anchor - out[..., :1]) / (2.0 * math.pi))
    return out


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
    resp = tf_eval(tf, full)
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


def _regula_falsi(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray,
                  fb: np.ndarray, va: np.ndarray, vb: np.ndarray):
    """Refine every bracket [a, b] of a sign change of f at once by
    Anderson-Bjorck regula falsi in log frequency (Anderson & Bjorck, BIT
    13, 1973).

    f(w, idx) evaluates the brackets idx at the trial frequencies w and
    returns f there and a value v wanted at the root; fa, fb and va, vb hold
    f and v at the ends. A bracket stops once (b - a)/a <= MARGIN_REL_TOL,
    once its next iterate is not strictly inside it or once f comes back
    NaN, and yields its last iterate, which lies in its final bracket (the
    end with the smaller |f| if not even the first iterate is inside), and
    v there.
    """
    near_a = np.abs(fa) < np.abs(fb)
    out, val = np.where(near_a, a, b), np.where(near_a, va, vb)
    log_tol = math.log1p(MARGIN_REL_TOL)
    # lb is the latest iterate and la the end kept from before it
    la, lb, idx = np.log(a), np.log(b), np.arange(a.size)
    while True:
        x = lb - fb * (lb - la) / (fb - fa)
        go = ((x - la) * (x - lb) < 0.0) & (np.abs(lb - la) > log_tol)
        if not go.any():
            return out, val
        la, lb, fa, fb, idx, x = (v[go] for v in (la, lb, fa, fb, idx, x))
        w = np.exp(x)
        fx, val[idx] = f(w, idx)
        out[idx] = w
        # a root between la and x keeps la, its value weighted by
        # 1 - fx/fb, or halved where that is not positive
        kept = fx * fb > 0.0
        m = 1.0 - fx / fb
        fa = np.where(kept, fa * np.where(m > 0.0, m, 0.5), fb)
        la = np.where(kept, la, lb)
        lb, fb = x, fx


def _branch_fixed(raw, rat_left) -> np.ndarray:
    # a rational phase inside a grid cell takes its branch from the cell's
    # left grid point
    return raw + 2.0 * math.pi * np.round((rat_left - raw) / (2.0 * math.pi))


# loops whose rational parts a margin scan evaluates together: each adds
# about 0.15 MB of scratch arrays to a block, most of them np.unwrap's
_SCAN_BLOCK = 3


@functools.cache
def _margin_grid():
    """The margin scan's grid, built on first use and read-only: (the
    anchoring chain and MARGIN_BAND's grid, the chain's length)."""
    full, n_chain = _sweep_grid(*MARGIN_BAND, MARGIN_SCAN_PER_DECADE)
    full.flags.writeable = False
    return full, n_chain


@dataclass(frozen=True, eq=False)
class MarginScan:
    """What the margin scan found for one loop. Its unity crossings no delay
    enters, so they give the phase margin behind any delay; the -180 deg
    crossings lie behind the loop's own delay and are found only for a
    scan with gain margins. A PoleOnAxis met by the scan is held and raised
    by what reads the results it spoiled."""

    delay_s: float
    w_gc: np.ndarray      # unity crossings [rad/s]
    rat_gc: np.ndarray    # the rational part's phase there [rad]
    w_pc: Optional[np.ndarray]  # -180 deg (mod 360) crossings [rad/s]
    m_pc: Optional[np.ndarray]  # |L| there
    pole: Optional[str]       # PoleOnAxis on the grid or at a unity crossing
    gain_pole: Optional[str]  # PoleOnAxis in the -180 deg search
    refinements: int      # rational evaluations of the regula falsi

    def phase_margins(self, delays) -> np.ndarray:
        """Phase margin [deg] behind each delay [s] in place of the loop's
        own, bit-equal to stability_margins(replace(loop, delay_s=T))
        .phase_margin_deg; NaN without a unity crossing."""
        if self.pole:
            raise PoleOnAxis(self.pole)
        pm = 180.0 + np.degrees(self.rat_gc - self.w_gc
                                * np.asarray(delays, float)[..., None])
        return (pm.min(axis=-1) if self.w_gc.size
                else np.full(pm.shape[:-1], math.nan))

    def report(self) -> StabilityReport:
        """The margins behind the loop's own delay, as stability_margins
        states them."""
        if self.pole:
            raise PoleOnAxis(self.pole)
        if not self.w_gc.size:
            raise NoCrossover("loop magnitude never crosses unity in the scan band")
        if self.gain_pole:
            raise PoleOnAxis(self.gain_pole)
        pm = 180.0 + np.degrees(self.rat_gc - self.w_gc * self.delay_s)
        best = int(np.argmin(pm))
        keep = self.m_pc > 0.0
        if keep.any():
            gm = -20.0 * np.log10(self.m_pc[keep])
            i_gm = int(np.argmin(gm))
            gm_db, w_gm = float(gm[i_gm]), float(self.w_pc[keep][i_gm])
        else:
            gm_db, w_gm = math.inf, math.nan
        return StabilityReport(phase_margin_deg=float(pm[best]),
                               gain_crossover_rad_s=float(self.w_gc[best]),
                               gain_margin_db=gm_db,
                               phase_crossover_rad_s=w_gm,
                               crossover_count=int(self.w_gc.size))


def scan_counters(scans) -> dict:
    """Deterministic work counts of a set of margin scans."""
    scans = list(scans)
    return {"loop_shapes": len(scans),
            "grid_points": len(scans) * _margin_grid()[0].size,
            "refinement_evaluations": sum(s.refinements for s in scans)}


def margin_scan(loops: Sequence[DelayedTransferFunction],
                gain_margins: bool = False) -> list:
    """Scan a stack of loops for their crossings, _SCAN_BLOCK loops at a
    time; one MarginScan per loop, in order. gain_margins adds each loop's
    -180 deg crossings behind its own delay, which MarginScan.report needs.

    A loop's PoleOnAxis stops no other loop: its scan holds it, so reading
    the scans in order raises what scanning the loops one by one would.
    """
    scans = []
    for i in range(0, len(loops), _SCAN_BLOCK):
        scans += _scan_block(loops[i:i + _SCAN_BLOCK], gain_margins)
    return scans


def _scan_block(loops, gain_margins: bool) -> list:
    """margin_scan of a few loops: one evaluation of their rational parts on
    the grid, one phase unwrap along the rows, and one regula falsi for each
    kind of crossing over every bracket of every loop."""
    full, n_chain = _margin_grid()
    omegas = full[n_chain:]
    num = _descending([loop.num for loop in loops])
    den = _descending([loop.den for loop in loops])
    poles, gain_poles = [None] * len(loops), [None] * len(loops)
    refinements = np.zeros(len(loops), np.int64)

    def rational(w, rows, stage_poles):
        # each bracket's loop at its trial frequency; a loop whose
        # denominator vanishes there is held as failed and its brackets get
        # NaN, which stops them
        h, den_abs = _rational_array(num[rows], den[rows], 1j * w)
        refinements[:] += np.bincount(rows, minlength=len(loops))
        if den_abs is not None:
            for r in np.unique(rows[den_abs < _DEN_FLOOR]):
                mine = rows == r
                stage_poles[r] = _pole_on_axis(den_abs[mine], w[mine])
                h[mine] = math.nan
        return h

    h, den_abs = _rational_array(num[:, None], den[:, None], 1j * full)
    if den_abs is not None:
        poles = [_pole_on_axis(row, full) for row in den_abs]
    del den_abs
    live = np.array([p is None for p in poles])[:, None]
    mag = np.abs(h[:, n_chain:])
    f = mag - 1.0
    on_rows, on_cols = np.nonzero((f == 0.0) & live)
    rows, cells = np.nonzero((f[:, :-1] * f[:, 1:] < 0.0) & live)
    fa, fb = f[rows, cells], f[rows, cells + 1]
    ha, hb = h[rows, n_chain + cells], h[rows, n_chain + cells + 1]
    raw = np.angle(h)
    del f, h
    anchors = np.array([_low_freq_phase(loop) for loop in loops])
    rat = _unwrap_with_anchor(raw, anchors[:, None])[:, n_chain:].copy()
    del raw

    # ---- unity-magnitude crossings, and the rational phase there
    def unity(w, i):
        h = rational(w, rows[i], poles)
        return np.abs(h) - 1.0, h
    w_c, h_c = _regula_falsi(unity, omegas[cells], omegas[cells + 1],
                             fa, fb, ha, hb)
    rat_c = _branch_fixed(np.angle(h_c), rat[rows, cells])
    w_gc = [np.concatenate([omegas[on_cols[on_rows == r]], w_c[rows == r]])
            for r in range(len(loops))]
    rat_gc = [np.concatenate([rat[r, on_cols[on_rows == r]], rat_c[rows == r]])
              for r in range(len(loops))]

    # ---- -180 deg (mod 360) crossings behind each loop's own delay, for
    # the loops still standing with a unity crossing; level k of
    # u = (phase + pi)/2pi is the target 2*pi*k - pi
    w_pc, m_pc = [None] * len(loops), [None] * len(loops)
    if gain_margins:
        delay = np.array([loop.delay_s for loop in loops])
        sel = np.flatnonzero([p is None and w.size > 0
                              for p, w in zip(poles, w_gc)])
        phase = rat[sel] - omegas * delay[sel, None]
        u = (phase + math.pi) / (2.0 * math.pi)
        lv_sel, lv_cols = np.nonzero(u[:, :-1] == np.floor(u[:, :-1]))
        lo = np.floor(np.minimum(u[:, :-1], u[:, 1:]))
        hi = np.ceil(np.maximum(u[:, :-1], u[:, 1:]))
        per_cell = np.maximum(hi - lo - 1.0, 0.0).astype(np.int64).ravel()
        brackets = np.repeat(np.arange(per_cell.size), per_cell)
        first = np.cumsum(per_cell) - per_cell
        levels = (lo.ravel()[brackets] + 1.0
                  + (np.arange(brackets.size) - first[brackets]))
        target = 2.0 * math.pi * levels - math.pi
        x_sel, x_cells = np.divmod(brackets, omegas.size - 1)
        x_rows = sel[x_sel]

        def minus_180(w, i):
            r = x_rows[i]
            h = rational(w, r, gain_poles)
            return (_branch_fixed(np.angle(h), rat[r, x_cells[i]])
                    - w * delay[r] - target[i]), np.abs(h)
        w_x, m_x = _regula_falsi(
            minus_180, omegas[x_cells], omegas[x_cells + 1],
            phase[x_sel, x_cells] - target, phase[x_sel, x_cells + 1] - target,
            mag[x_rows, x_cells], mag[x_rows, x_cells + 1])
        for j, r in enumerate(sel):
            on_level = lv_cols[lv_sel == j]
            w_pc[r] = np.concatenate([omegas[on_level], w_x[x_sel == j]])
            m_pc[r] = np.concatenate([mag[r, on_level], m_x[x_sel == j]])

    return [MarginScan(delay_s=loop.delay_s, w_gc=w_gc[r], rat_gc=rat_gc[r],
                       w_pc=w_pc[r], m_pc=m_pc[r], pole=poles[r],
                       gain_pole=gain_poles[r],
                       refinements=int(refinements[r]))
            for r, loop in enumerate(loops)]


def stability_margins(open_loop: DelayedTransferFunction) -> StabilityReport:
    """Gain/phase margins from a scan of MARGIN_BAND plus regula falsi.

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
    return margin_scan([open_loop], gain_margins=True)[0].report()


@dataclass(frozen=True)
class SecondOrderFit:
    gain: float       # DC gain k
    omega_n: float    # [rad/s]
    zeta: float       # damping ratio

    def eval(self, omega):
        s = 1j * omega
        wn = self.omega_n
        return self.gain * wn * wn / (s * s + 2.0 * self.zeta * wn * s + wn * wn)


def require_finite(**samples):
    """ValueError naming the first sample vector with a NaN or an inf."""
    for name, values in samples.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")


def least_squares_lm(residual: Callable, x0, what: str) -> np.ndarray:
    """argmin sum(residual(x)**2) by Levenberg-Marquardt from x0, as every
    fit here runs it; FitDiverged, naming the `what` fit, when the solver
    cannot start, does not converge or leaves the finite floats."""
    try:
        # a descent that leaves the floats is reported below, not warned of
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            res = scipy.optimize.least_squares(
                residual, x0, method="lm", xtol=1e-14, ftol=1e-14,
                max_nfev=5000)
    except ValueError as exc:
        # the solver cannot even start descending on this data
        raise FitDiverged(f"{what} fit could not proceed: {exc}") from exc
    if not res.success or not np.all(np.isfinite(res.x)):
        raise FitDiverged(f"{what} fit did not converge")
    return res.x


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
    require_finite(omega=w, magnitude=mag, phase_deg=ph)
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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h = SecondOrderFit(*np.exp(theta)).eval(w)
            return np.concatenate([np.log(np.abs(h) / mag),
                                   phase_weight * (np.angle(h) - ph)])

    k, wn, zeta = np.exp(least_squares_lm(residual, np.log([k0, wn0, z0]),
                                          "second-order"))
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
    e = _expm(aug * dt)
    return e[:n, :n], e[:n, n:]


# Pade-13 numerator coefficients (N. J. Higham, SIAM J. Matrix Anal. Appl.
# 26, 2005), divided by the first so that the denominator is 1 at the origin:
# a zero row of the argument, as in the Van Loan matrix's input rows, then
# gives an exact identity row; and the 1-norm up to which the approximant is
# accurate to double precision (ibid., Table 2.3)
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005,
    Alg. 2.3 without its lower degrees). A matrix whose 1-norm is not
    finite gives an all-NaN matrix, which the callers' divergence checks
    report."""
    with np.errstate(over="ignore"):
        norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full(a.shape, math.nan)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


# ------------------------------------------------------------------ csv

def csv_table(header: str, columns) -> str:
    """CSV text of a table given column by column; every output CSV is
    written here. Each column is a sequence of cells, or a 2-D array for
    several numeric columns side by side. A float is written as %.10g, an
    int as is, text as given; None, NaN and +-inf are an empty cell."""
    def cell(v) -> str:
        if isinstance(v, str):
            return v
        if v is None or not math.isfinite(v):
            return ""
        return "%d" % v if isinstance(v, (int, np.integer)) else "%.10g" % v

    arrays = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object)
              for c in columns]
    cols = [col for a in arrays for col in (a.T if a.ndim == 2 else [a])]
    if len(cols) != header.count(",") + 1 or len({len(c) for c in cols}) > 1:
        raise ValueError("need one equal-length column per header field")
    # an all-finite float array is formatted a row at a time, an all-NaN/inf
    # one is an empty field of the row template and a constant one its text
    # there, any other column cell by cell; blocks of rows keep few cells
    # alive as Python objects
    def field(c) -> str:
        if c.dtype.kind != "f":
            return "%s"
        finite = np.isfinite(c)
        if not finite.all():
            return "%s" if finite.any() else ""
        # == and the sign bit together compare finite floats bit for bit,
        # so a column of 0.0 and -0.0 is not constant
        if len(c) and (c == c[0]).all() and (
                np.signbit(c) == np.signbit(c[0])).all():
            return "%.10g" % c[0]
        return "%.10g"

    fields = [field(c) for c in cols]
    row = ",".join(fields)
    live = [(c, f == "%s") for c, f in zip(cols, fields)
            if f in ("%s", "%.10g")]
    lines = [header]
    n = len(cols[0])
    for i in range(0, n, 256):
        block = [c[i:i + 256].tolist() for c, _ in live]
        block = [[cell(v) for v in b] if per_cell else b
                 for b, (_, per_cell) in zip(block, live)]
        lines += ([row % r for r in zip(*block)] if block
                  else [row] * min(256, n - i))
    return "\n".join(lines) + "\n"


FRF_CSV_HEADER = "omega_rad_s,magnitude,phase_deg"


def frf_to_csv(points: Sequence[FrequencyResponsePoint]) -> str:
    return csv_table(FRF_CSV_HEADER, [[getattr(p, name) for p in points]
                                      for name in ("omega", "magnitude",
                                                   "phase_deg")])
