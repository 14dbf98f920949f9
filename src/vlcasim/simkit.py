"""Fixed-step time-domain simulation of the actuator force loops.

Controllers run at 1 kHz with a one-period command delay and hold their
current over each period. Every plant here is linear, so each advances
by its exact zero-order-hold map, one step per period: the force loop, the
chirp and the position loop under their held current, and the hammer
strike with its half-sine pulse carried as an oscillator in the state.
Each map is built once per plant into a function of Python floats
(_affine_map), so a period makes no numpy call. The first three plants
share one run loop, _run_linear, which records the state history; each
run builds its trace columns from it after the loop.
The package's only Runge-Kutta integration is the nonlinear leg's
fixed-step Dormand-Prince map, in testbed; its substep body is the second
generated kernel (testbed._dp5_factory), built from the DP5 tableau as
_affine_map's steppers are from [Ad | Bd].
Saturation clips commanded current at the amplifier limit and is
recorded, not fatal.
"""

from __future__ import annotations

import math
import warnings
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .lintf import FrequencyResponsePoint, csv_table, zoh_discretize
from .vlca import (ActuatorParams, ControllerGains, ControllerKind,
                   DEFAULT_MOMENT_ARM, VLCA_ACTUATOR, q_taud_tf)


class NonFiniteState(Exception):
    """Integration produced NaN or infinity."""


class InsufficientExcitation(Exception):
    """Recorded data cannot support the requested frequency estimate."""


class SaturationWarning(UserWarning):
    """Commanded current exceeded the amplifier limit and was clipped."""


CONTROL_DT = 1e-3        # controller period [s]
CURRENT_LIMIT_A = 31.0   # amplifier clip [A]
CHIRP_SETTLE_S = 0.5     # quiet tail letting a chirp's response ring out [s]
# longest run any simulator accepts [steps], so that no run length can hang
# a run; the longest a test or the benchmark makes is a 250,000-step hold
MAX_RUN_SAMPLES = 300_000
# most runs one sweep starts, checked before any is built or run
MAX_SWEEP_RUNS = 1_000


def control_steps(duration: float, name: str, dt: float = CONTROL_DT) -> int:
    """The run clock: the number of dt steps in a run of `duration` seconds,
    rounded to the nearest. ValueError, naming `name`, for a run shorter
    than one step or longer than MAX_RUN_SAMPLES steps."""
    if not (duration >= dt and duration / dt <= MAX_RUN_SAMPLES):
        raise ValueError(f"{name} must give 1 to {MAX_RUN_SAMPLES:,} steps "
                         f"of {dt:g} s, got a {duration:g} s run")
    return int(round(duration / dt))


# ---------------------------------------------------------------- plant

@lru_cache(maxsize=None)
def _affine_factory(n: int):
    """factory(*entries) -> step(x, u) for n states, the entries of the
    n x (n+1) map row-major. The source is generated and compiled once per
    n, as dataclasses and namedtuple build their methods; the entries
    arrive as arguments, so each float, non-finite ones included, reaches
    the closure unchanged."""
    cols = [f"x{j}" for j in range(n)] + ["u"]
    rows = [[f"a{i}_{j}" for j in range(n + 1)] for i in range(n)]
    sums = ", ".join(" + ".join(f"{a} * {c}" for a, c in zip(row, cols))
                     for row in rows)
    src = (f"def factory({', '.join(a for row in rows for a in row)}):\n"
           f"    def step(x, u):\n"
           f"        {''.join(c + ', ' for c in cols[:-1])}= x\n"
           f"        return [{sums}]\n"
           f"    return step\n")
    namespace = {}
    exec(src, namespace)
    return namespace["factory"]


def _affine_map(adb: np.ndarray) -> Callable[[Sequence[float], float], list]:
    """The map (x, u) -> [Ad | Bd] (x, u) of the n x (n+1) matrix adb as
    one function of Python floats: x holds n floats, u is a float, and each
    row is summed left to right in column order. It returns a list."""
    return _affine_factory(adb.shape[0])(*adb.ravel().tolist())


def _run_linear(plant, n: int, command: Callable[[int, list], float]
                ) -> np.ndarray:
    """State history of the linear plant (A, B) = plant over n control
    periods from rest: row k is the state at the start of period k, a list
    x of floats, and command(k, x) is the scalar input, a float, held over
    that period. Each period advances by the exact zero-order-hold map
    x -> Ad x + Bd u (_affine_map). NonFiniteState when a state leaves the
    floats."""
    adb = np.hstack(zoh_discretize(*plant, CONTROL_DT))
    step = _affine_map(adb)
    x = [0.0] * adb.shape[0]
    history = array("d")  # packed doubles: no float object outlives its step
    for k in range(n):
        history.extend(x)
        x = step(x, command(k, x))
        if not all(map(math.isfinite, x)):
            raise NonFiniteState(
                f"plant state diverged at t={k * CONTROL_DT:.3f} s")
    return np.frombuffer(history).reshape(n, -1)


def _locked_plant(params: ActuatorParams):
    """(A, B) of the locked-output spring plant: state (x_r, v_r), input
    screw-axis force [N]."""
    m, b, k = params.effective_mass, params.effective_damping, params.k_r
    return (np.array([[0.0, 1.0], [-k / m, -b / m]]),
            np.array([[0.0], [1.0 / m]]))


# ---------------------------------------------------------- references

@dataclass(frozen=True)
class StepRef:
    level: float            # [N]
    start_time: float = 0.0

    def value(self, t: float) -> float:
        return self.level if t >= self.start_time else 0.0


@dataclass(frozen=True)
class RampRef:
    start_level: float
    end_level: float
    start_time: float
    ramp_time: float

    def __post_init__(self):
        if self.ramp_time <= 0.0:
            raise ValueError("ramp_time must be > 0")

    def value(self, t: float) -> float:
        if t <= self.start_time:
            return self.start_level
        if t >= self.start_time + self.ramp_time:
            return self.end_level
        frac = (t - self.start_time) / self.ramp_time
        return self.start_level + frac * (self.end_level - self.start_level)


@dataclass(frozen=True)
class SineRef:
    amplitude: float
    freq_hz: float

    def value(self, t: float) -> float:
        return self.amplitude * math.sin(2.0 * math.pi * self.freq_hz * t)


@dataclass(frozen=True)
class ChirpRef:
    """Exponential sweep from f0 to f1 over the given duration."""

    amplitude: float
    f0_hz: float
    f1_hz: float
    duration_s: float

    def __post_init__(self):
        if not (0.0 < self.f0_hz < self.f1_hz):
            raise ValueError("need 0 < f0_hz < f1_hz")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be > 0")

    @property
    def rate(self) -> float:
        """Frequency growth per second of the sweep, f1/f0 ** (1/duration)."""
        return (self.f1_hz / self.f0_hz) ** (1.0 / self.duration_s)

    def value(self, t: float) -> float:
        r = self.rate
        phase = 2.0 * math.pi * self.f0_hz * (r ** t - 1.0) / math.log(r)
        return self.amplitude * math.sin(phase)


# ------------------------------------------------------------- filters

class _TustinDeriv:
    """Bilinear discretization of w*s/(s+w)."""

    def __init__(self, cutoff_rad_s: float):
        k = 2.0 / CONTROL_DT
        self._a = (k - cutoff_rad_s) / (k + cutoff_rad_s)
        self._b = cutoff_rad_s * k / (k + cutoff_rad_s)
        self._y = 0.0
        self._u = 0.0

    def step(self, u: float) -> float:
        y = self._a * self._y + self._b * (u - self._u)
        self._y, self._u = y, u
        return y


class _TustinBiquad:
    """Bilinear discretization of (B2 s^2 + B1 s + B0)/(A2 s^2 + A1 s + A0),
    direct form II transposed."""

    def __init__(self, num, den):
        b2, b1, b0 = num[2], num[1], num[0]
        a2, a1, a0 = den[2], den[1], den[0]
        k = 2.0 / CONTROL_DT
        k2 = k * k
        d0 = a2 * k2 + a1 * k + a0
        self.b0 = (b2 * k2 + b1 * k + b0) / d0
        self.b1 = (2.0 * b0 - 2.0 * b2 * k2) / d0
        self.b2 = (b2 * k2 - b1 * k + b0) / d0
        self.a1 = (2.0 * a0 - 2.0 * a2 * k2) / d0
        self.a2 = (a2 * k2 - a1 * k + a0) / d0
        self.z1 = 0.0
        self.z2 = 0.0

    def step(self, u: float) -> float:
        y = self.b0 * u + self.z1
        self.z1 = self.b1 * u - self.a1 * y + self.z2
        self.z2 = self.b2 * u - self.a2 * y
        return y


class _DobShaper:
    """Reference correction from a filtered plant-inverse force estimate.

    Solves the observer's direct-feedthrough algebraically each step, so no
    extra sample of delay is introduced beyond the loop's own.
    """

    def __init__(self, params: ActuatorParams, gains: ControllerGains):
        q = q_taud_tf(gains)  # the margin model's observer filter, monic
        w2, den = q.num.coefficients[0], q.den.coefficients
        m = params.effective_mass
        b = params.effective_damping + gains.k_dm * params.n_m
        k = params.k_r * (1.0 + gains.k_p)
        self._q = _TustinBiquad((w2, 0.0, 0.0), den)
        scale = w2 / k
        self._g = _TustinBiquad((k * scale, b * scale, m * scale), den)

    def shape(self, f_desired: float, f_meas: float) -> float:
        """Solve this period's corrected reference; commit() must follow."""
        g_out = self._g.step(f_meas)
        # f_ref = f_d + Q(f_ref) - G(f_meas); Q has feedthrough b0 < 1
        return (f_desired + self._q.z1 - g_out) / (1.0 - self._q.b0)

    def commit(self, f_ref: float) -> None:
        """Advance the observer filter with the reference actually acted on
        (back-calculated under current clipping, to keep the integral-like
        observer from winding up)."""
        self._q.step(f_ref)


def delay_samples(delay_t: float) -> int:
    """The loop delay in whole control periods; ValueError for a delay the
    1 kHz controller cannot realise (1e-9 relative tolerance)."""
    periods = delay_t / CONTROL_DT
    n = round(periods)
    if abs(periods - n) > 1e-9 * periods:
        raise ValueError(f"delay_t must be a whole number of {CONTROL_DT:g} s "
                         f"control periods, got {delay_t:g} s")
    return n


class DiscreteForceController:
    """One force-loop controller stepping at CONTROL_DT.

    step() takes the raw force target, the measured spring force, and the
    motor-side velocity in screw coordinates; it returns the current that
    reaches the amplifier this period (after the command delay and clip).
    """

    def __init__(self, kind: ControllerKind, params: ActuatorParams,
                 gains: ControllerGains):
        self.kind = kind
        self.params = params
        self.gains = gains
        self.saturation_count = 0
        self._n = params.drive_constant
        self._integ = 0.0
        # the commands in flight, oldest first: the transport delay's FIFO
        self._delay = deque([0.0] * delay_samples(gains.delay_t))
        self._deriv = None
        self._dob = None
        if kind is ControllerKind.PDF:
            self._deriv = _TustinDeriv(gains.cutoff("q_d_cutoff"))
            self._k_df = gains.resolved_k_df(params)
        if kind is ControllerKind.PDM_DOB:
            self._dob = _DobShaper(params, gains)

    @property
    def latency_s(self) -> float:
        """Time between computing a command and it reaching the amplifier."""
        return len(self._delay) * CONTROL_DT

    def step(self, f_target: float, f_meas: float, motor_velocity: float) -> float:
        g = self.gains
        f_ref = self._dob.shape(f_target, f_meas) if self._dob else f_target
        err = f_ref - f_meas
        damp = g.k_dm * self.params.n_m * motor_velocity
        if self.kind is ControllerKind.PDF:
            u = g.k_p * err + f_ref - self._k_df * self._deriv.step(f_meas)
        elif self.kind is ControllerKind.PIDM:
            integ_next = self._integ + err * CONTROL_DT
            u = g.k_p * err + g.k_i * integ_next + f_ref - damp
        else:  # PDM and the DOB's inner loop
            u = g.k_p * err + f_ref - damp
        i_cmd = u / self._n
        clipped = abs(i_cmd) > CURRENT_LIMIT_A
        if clipped:
            i_cmd = math.copysign(CURRENT_LIMIT_A, i_cmd)
            self.saturation_count += 1
        if self.kind is ControllerKind.PIDM:
            # hold the integrator while the amplifier is at its rail
            self._integ = self._integ if clipped else integ_next
        if self._dob is not None:
            if clipped:
                # back-calculate the reference consistent with the clipped
                # command so the observer tracks the plant's real input
                f_ref = (i_cmd * self._n + g.k_p * f_meas + damp) / (1.0 + g.k_p)
            self._dob.commit(f_ref)
        self._delay.append(i_cmd)
        return self._delay.popleft()


# --------------------------------------------------------------- traces

SIM_CSV_HEADER = "t_s,f_cmd_N,f_meas_N,f_loadcell_N,i_m_A,x_r_m,q_out,temp_C"


@dataclass
class SimTrace:
    """Uniformly sampled run record at the controller rate."""

    dt: float
    t: np.ndarray
    f_cmd: np.ndarray
    f_meas: np.ndarray       # spring deflection times stiffness [N]
    f_loadcell: np.ndarray   # spring plus damper reaction, or contact force [N]
    i_m: np.ndarray          # applied motor current [A]
    x_r: np.ndarray          # spring deflection [m]
    # output/joint position of a position run; None fills it with nan
    q_out: Optional[np.ndarray] = None
    saturation_count: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.q_out is None:
            self.q_out = np.full(len(self.t), math.nan)

    def to_csv(self) -> str:
        # no model here has a temperature: temp_C is an empty column
        return csv_table(SIM_CSV_HEADER, (
            self.t, self.f_cmd, self.f_meas, self.f_loadcell, self.i_m,
            self.x_r, self.q_out, np.full(len(self.t), math.nan)))


def _warn_if_saturated(trace: SimTrace, count: int):
    trace.saturation_count = count
    if count > 0:
        warnings.warn(f"current clipped at {CURRENT_LIMIT_A:g} A on {count} "
                      f"control steps", SaturationWarning, stacklevel=3)


# ----------------------------------------------------------- force loop

def run_force_tracking(kind: ControllerKind, gains: ControllerGains,
                       reference, duration: float,
                       params: ActuatorParams = VLCA_ACTUATOR) -> SimTrace:
    """Closed-loop force tracking against the locked-output plant.

    reference is any object with value(t) -> N.
    """
    n = control_steps(duration, "duration")
    ctrl = DiscreteForceController(kind, params, gains)
    k_r, n_drive = params.k_r, params.drive_constant
    currents = array("d")

    # the reference generator lives on the same clock as the controller,
    # so each command is computed for the instant it takes effect
    preview = ctrl.latency_s

    def command(k, y):
        t = k * CONTROL_DT
        i = ctrl.step(reference.value(t + preview), k_r * y[0], y[1])
        currents.append(i)
        return n_drive * i

    x, v = _run_linear(_locked_plant(params), n, command).T
    t = np.arange(n) * CONTROL_DT
    f_meas = k_r * x
    trace = SimTrace(CONTROL_DT, t,
                     f_cmd=np.array([reference.value(tk) for tk in t.tolist()]),
                     f_meas=f_meas, f_loadcell=f_meas + params.b_r * v,
                     i_m=np.frombuffer(currents), x_r=x,
                     meta={"kind": kind.value,
                           "reference": type(reference).__name__})
    _warn_if_saturated(trace, ctrl.saturation_count)
    return trace


def chirp_record_samples(duration_s: float) -> int:
    """chirp_drive's record length: a duration_s sweep plus its quiet tail."""
    return control_steps(duration_s + CHIRP_SETTLE_S, "chirp_s")


def chirp_drive(chirp: ChirpRef) -> np.ndarray:
    """The identification drive current at each control step: the sweep,
    then zero over the quiet tail. Each sample is chirp.value's arithmetic
    in Python floats, so the two agree bit for bit; numpy's r ** t rounds
    differently in about 5% of the samples of the default bode record."""
    t = np.arange(chirp_record_samples(chirp.duration_s)) * CONTROL_DT
    on = t <= chirp.duration_s
    r, w, log_r = chirp.rate, 2.0 * math.pi * chirp.f0_hz, math.log(chirp.rate)
    amp, sin = chirp.amplitude, math.sin
    drive = np.zeros(len(t))
    drive[on] = np.fromiter((amp * sin(w * (r ** tk - 1.0) / log_r)
                             for tk in t[on].tolist()), float)
    return drive


def run_plant_chirp(drive: np.ndarray,
                    params: ActuatorParams = VLCA_ACTUATOR) -> SimTrace:
    """Open-loop current drive for identification, one sample of drive
    (a chirp_drive record) per control step.

    The commanded-force column holds the motor force (drive constant times
    current), so a response estimate against the measured spring force
    yields the force plant directly.
    """
    n_drive = params.drive_constant
    x, v = _run_linear(_locked_plant(params), len(drive),
                       lambda k, y: n_drive * drive.item(k)).T
    f_meas = params.k_r * x
    return SimTrace(CONTROL_DT, np.arange(len(drive)) * CONTROL_DT,
                    n_drive * drive,
                    f_meas=f_meas, f_loadcell=f_meas + params.b_r * v,
                    i_m=drive, x_r=x, meta={"kind": "open_loop_chirp"})


# ------------------------------------------------- response estimation

# shortest record empirical_frequency_response accepts [samples]
FRF_MIN_SAMPLES = 1024


def excited_band(u: np.ndarray, dt: float, held: bool):
    """The estimator's view of a drive record u sampled every dt: (window,
    frequencies, input spectrum, f_lo, f_hi). The spectrum is of the
    cosine-tapered record, with a zero-order hold's response divided back
    out when held; the band is where it stays above 1% of its peak, and it
    must span at least two decades, else InsufficientExcitation."""
    n = len(u)
    # cosine-taper 2% of each end to suppress edge leakage
    win = np.ones(n)
    m = max(int(0.02 * n), 8)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    win[:m] = ramp
    win[-m:] = ramp[::-1]
    spec_u = np.fft.rfft(u * win)
    freqs = np.fft.rfftfreq(n, dt)

    if held:
        # the drive is a zero-order-held current record; divide the hold's
        # half-sample response back out so the estimate lands on the
        # continuous plant
        wdt = 2.0 * math.pi * freqs[1:] * dt
        spec_u[1:] *= (1.0 - np.exp(-1j * wdt)) / (1j * wdt)

    # ignore the mean and its leakage skirt when locating the excited band
    mag_band = np.abs(spec_u)
    mag_band[:4] = 0.0
    if not mag_band.any():
        raise InsufficientExcitation("input spectrum is all zero")
    floor = 0.01 * mag_band.max()
    hot = np.nonzero(mag_band >= floor)[0]
    hot = hot[freqs[hot] > 0.0]
    if hot.size < 8:
        raise InsufficientExcitation("input spectrum carries no usable band")
    f_lo, f_hi = float(freqs[hot[0]]), float(freqs[hot[-1]])
    if f_hi / f_lo < 100.0:
        raise InsufficientExcitation(
            f"excited band {f_lo:.3g}-{f_hi:.3g} Hz spans under two decades")
    return win, freqs, spec_u, f_lo, f_hi


def empirical_frequency_response(trace: SimTrace) -> list:
    """Frequency response from the commanded-force column to the measured
    spring force, by windowed FFT ratio at 24 log-spaced target
    frequencies per decade of the excited band (excited_band).

    A local-consistency proxy below 0.9 raises InsufficientExcitation.
    """
    u = np.asarray(trace.f_cmd, dtype=float)
    y = np.asarray(trace.f_meas, dtype=float)
    n = len(u)
    if n < FRF_MIN_SAMPLES:
        raise InsufficientExcitation(
            f"record too short: {n} samples, need {FRF_MIN_SAMPLES}")
    win, freqs, spec_u, f_lo, f_hi = excited_band(
        u, trace.dt, held=trace.meta.get("kind") == "open_loop_chirp")
    spec_y = np.fft.rfft(y * win)

    # keep clear of the rolloff at the band edges
    targets = np.geomspace(f_lo * 1.26, f_hi / 1.26,
                           max(int(math.log10(f_hi / f_lo) * 24), 8))
    bins = np.unique(np.searchsorted(freqs, targets))
    bins = bins[(bins > 0) & (bins < len(freqs) - 4)]
    h = spec_y[bins] / spec_u[bins]

    # local-consistency proxy: each estimate against the median of its
    # spectral neighborhood
    cons = np.empty(len(bins))
    for i, b in enumerate(bins):
        lo, hi = max(b - 4, 1), min(b + 5, len(freqs))
        nbr = spec_y[lo:hi] / spec_u[lo:hi]
        ref = complex(np.median(nbr.real), np.median(nbr.imag))
        cons[i] = 1.0 - abs(h[i] - ref) / (abs(ref) + 1e-30)
    if float(np.percentile(cons, 10)) < 0.9:
        raise InsufficientExcitation("response estimate is not locally consistent")

    phase = np.degrees(np.unwrap(np.angle(h)))
    return [FrequencyResponsePoint(2.0 * math.pi * float(freqs[b]),
                                   float(abs(hv)), float(p))
            for b, hv, p in zip(bins, h, phase)]


# ------------------------------------------- joint position comparison

POSITION_KP = 4.0e5  # commanded force per meter of output error [N/m]
POSITION_KD = 6.0e4  # commanded force per m/s of motor-side speed [N*s/m]

# reflected inertia seen at the screw by a loaded leg joint, mid-range [kg]
DEFAULT_REFLECTED_LOAD_KG = 2000.0

_SPRING_ELEMENTS = {
    # (stiffness share of the elastomer rating, damping N*s/m)
    "elastomer": (1.0, None),       # damping taken from the actuator params
    "steel_spring": (0.11, 8000.0),  # drivetrain friction only
}


def spring_element(element: str, params: ActuatorParams):
    """(stiffness, damping) of the series element options [N/m, N*s/m]."""
    try:
        share, damping = _SPRING_ELEMENTS[element]
    except KeyError:
        raise ValueError(f"unknown series element: {element!r}") from None
    return share * params.k_r, params.b_r if damping is None else damping


def two_mass_plant(element: str, params: ActuatorParams = VLCA_ACTUATOR):
    """Open-loop (A, B) of the position-loop plant in screw coordinates:
    state (x_m, v_m, x_l, v_l), input motor force [N]. The drivetrain mass
    drives the reflected joint load through the series spring/damper."""
    k_s, b_s = spring_element(element, params)
    m_m, b_dt = params.effective_mass, params.drivetrain_damping
    m_l = DEFAULT_REFLECTED_LOAD_KG
    a = np.array([[0.0, 1.0, 0.0, 0.0],
                  [-k_s / m_m, -(b_dt + b_s) / m_m, k_s / m_m, b_s / m_m],
                  [0.0, 0.0, 0.0, 1.0],
                  [k_s / m_l, b_s / m_l, -k_s / m_l, -b_s / m_l]])
    return a, np.array([[0.0], [1.0 / m_m], [0.0], [0.0]])


POSITION_STEP_RAD = 0.05       # default joint step [rad]
POSITION_STEP_DURATION_S = 3.0  # default length of a step record [s]


def run_joint_position_control(element: str,
                               step_rad: float = POSITION_STEP_RAD,
                               duration: float = POSITION_STEP_DURATION_S,
                               params: ActuatorParams = VLCA_ACTUATOR) -> SimTrace:
    """Joint step response through the chosen series element.

    The position loop reads the output, damps motor speed, and commands
    current to the two_mass_plant.
    """
    n = control_steps(duration, "duration")
    k_s, b_s = spring_element(element, params)
    n_drive = params.drive_constant
    x_des = DEFAULT_MOMENT_ARM * step_rad
    delay = deque([0.0])  # one period of command delay
    currents = array("d")
    clipped = 0

    def command(k, y):
        nonlocal clipped
        i_cmd = (POSITION_KP * (x_des - y[2]) - POSITION_KD * y[1]) / n_drive
        if abs(i_cmd) > CURRENT_LIMIT_A:
            i_cmd = math.copysign(CURRENT_LIMIT_A, i_cmd)
            clipped += 1
        delay.append(i_cmd)
        currents.append(delay.popleft())
        return n_drive * currents[-1]

    xm, vm, xl, vl = _run_linear(two_mass_plant(element, params), n,
                                 command).T
    f_cmd = POSITION_KP * (x_des - xl) - POSITION_KD * vm
    defl = xm - xl
    trace = SimTrace(CONTROL_DT, np.arange(n) * CONTROL_DT, f_cmd,
                     f_meas=k_s * defl, f_loadcell=k_s * defl + b_s * (vm - vl),
                     i_m=np.frombuffer(currents), x_r=defl,
                     q_out=xl / DEFAULT_MOMENT_ARM,
                     meta={"kind": "position_step", "element": element,
                           "step_rad": step_rad, "x_des_m": x_des})
    if step_rad != 0.0:
        trace.meta["overshoot_frac"] = overshoot_fraction(trace.q_out, step_rad)
        trace.meta["settling_time_s"] = settling_time(trace.t, trace.q_out,
                                                      step_rad)
    _warn_if_saturated(trace, clipped)
    return trace


# --------------------------------------------------------------- impact

IMPACT_SENSOR_MASS_KG = 0.5  # struck cap and cell mass [kg]
IMPACT_DURATION_S = 0.3      # length of an impact record [s]


@dataclass(frozen=True)
class ImpactConfig:
    grounding: str = "viscoelastic"  # or "rigid"
    impulse_ns: float = 20.0         # hammer impulse [N*s]
    pulse_width_s: float = 2e-3      # half-sine width [s]

    def __post_init__(self):
        if self.grounding not in ("rigid", "viscoelastic"):
            raise ValueError("grounding must be 'rigid' or 'viscoelastic'")
        if self.impulse_ns < 0.0:
            raise ValueError("impulse_ns must be >= 0")
        if not 0.5e-3 <= self.pulse_width_s <= 5e-3:
            raise ValueError("pulse_width_s must be within [0.5, 5] ms")


def run_impact(config: ImpactConfig,
               params: ActuatorParams = VLCA_ACTUATOR) -> SimTrace:
    """Hammer strike along the screw axis with the controller idle.

    The struck assembly is the drivetrain's effective mass plus the sensor
    cap. With the viscoelastic mount the reaction closes through the spring
    element; with the rigid mount the spring is bypassed and the assembly
    only sees drivetrain drag. The load-cell column holds the force
    transmitted past the cap: hammer force minus the cap's inertial share.

    The pulse is the first output of the oscillator (sin pi*t/w,
    cos pi*t/w) carried in the state after (x, v), so each control period
    is one exact map: struck while the hammer acts, free after it, and the
    two composed in a period where the pulse ends part way.
    """
    w = config.pulse_width_s
    f_peak = config.impulse_ns * math.pi / (2.0 * w)
    m_tot = params.effective_mass + IMPACT_SENSOR_MASS_KG
    b_dt = params.drivetrain_damping
    visco = config.grounding == "viscoelastic"
    k_s = params.k_r if visco else 0.0
    b_s = params.b_r if visco else 0.0

    def hammer(t: float) -> float:
        return f_peak * math.sin(math.pi * t / w) if 0.0 <= t <= w else 0.0

    inv_m, om = 1.0 / m_tot, math.pi / w
    struck = np.array([[0.0, 1.0, 0.0, 0.0],
                       [-k_s * inv_m, -(b_dt + b_s) * inv_m, f_peak * inv_m, 0.0],
                       [0.0, 0.0, 0.0, om],
                       [0.0, 0.0, -om, 0.0]])
    free = struck.copy()
    free[1, 2] = 0.0  # the hammer has left; the oscillator runs on unheard

    def period(a, h):
        return zoh_discretize(a, np.zeros((4, 1)), h)[0]

    def stepper(ad):  # the strike has no input: a zero column for u
        return _affine_map(np.hstack((ad, np.zeros((4, 1)))))

    dt = CONTROL_DT
    n_on = int(w / dt + 1e-9)  # whole periods under the pulse
    tail = w - n_on * dt       # the pulse's share of the period it ends in
    steps = [stepper(period(struck, dt))] * n_on
    if tail > 1e-9 * dt:
        steps.append(stepper(period(free, dt - tail) @ period(struck, tail)))
    steps.append(stepper(period(free, dt)))

    n = control_steps(IMPACT_DURATION_S, "IMPACT_DURATION_S")
    y = [0.0, 0.0, 0.0, 1.0]
    history = array("d", y)
    for k in range(n - 1):
        y = steps[min(k, len(steps) - 1)](y, 0.0)
        history.extend(y)
    x, v = np.frombuffer(history).reshape(n, 4)[:, :2].T
    if not np.isfinite([x, v]).all():
        raise NonFiniteState("impact response diverged")

    t = np.arange(n) * dt
    f_hammer = np.array([hammer(tk) for tk in t.tolist()])
    acc = (f_hammer - (b_dt + b_s) * v - k_s * x) * inv_m
    return SimTrace(dt, t, f_cmd=np.zeros(n), f_meas=k_s * x,
                    f_loadcell=f_hammer - IMPACT_SENSOR_MASS_KG * acc,
                    i_m=np.zeros(n), x_r=x if visco else np.zeros(n),
                    meta={"kind": "impact", "grounding": config.grounding,
                          "f_peak_n": f_peak})


# -------------------------------------------------------------- metrics

def overshoot_fraction(y: Sequence[float], y_final: float) -> float:
    """Peak excursion past the final value, as a fraction of it."""
    if y_final == 0.0:
        raise ValueError("y_final must be nonzero")
    y = np.asarray(y, dtype=float)
    peak = float(np.max(y * math.copysign(1.0, y_final)))
    return max(peak - abs(y_final), 0.0) / abs(y_final)


def settling_time(t: Sequence[float], y: Sequence[float],
                  y_final: float) -> float:
    """Time after which |y - y_final| stays within 2% of |y_final|; inf if
    it never does."""
    if y_final == 0.0:
        raise ValueError("y_final must be nonzero")
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    outside = np.abs(y - y_final) > 0.02 * abs(y_final)
    if not outside.any():
        return float(t[0])
    last = int(np.nonzero(outside)[0][-1])
    if last == len(t) - 1:
        return math.inf
    return float(t[last + 1])
