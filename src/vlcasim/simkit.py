"""Fixed-step time-domain simulation of the actuator force loops.

Controllers run at 1 kHz with a one-period command delay and hold their
current over each period. The linear plants (force loop, chirp, position
loop) therefore advance by their exact zero-order-hold update, one affine
step per period; the pulse-driven hammer strike and the nonlinear leg use
the shared rk4_step. Saturation clips commanded current at the amplifier
limit and is recorded, not fatal.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .lintf import zoh_discretize
from .vlca import (ActuatorParams, ControllerGains, ControllerKind,
                   DEFAULT_MOMENT_ARM, VLCA_ACTUATOR)


class NonFiniteState(Exception):
    """Integration produced NaN or infinity."""


class InsufficientExcitation(Exception):
    """Recorded data cannot support the requested frequency estimate."""


class SaturationWarning(UserWarning):
    """Commanded current exceeded the amplifier limit and was clipped."""


CONTROL_DT = 1e-3        # controller period [s]
CURRENT_LIMIT_A = 31.0   # amplifier clip [A]


# ---------------------------------------------------------------- plant

@dataclass(frozen=True)
class PlantState:
    """Spring deflection state plus the lumped constants acting on it."""

    x_r: float               # deflection [m]
    v_r: float               # deflection rate [m/s]
    mass: float              # effective mass [kg]
    damping: float           # effective damping [N*s/m]
    stiffness: float         # spring rate [N/m]
    force_per_amp: float     # screw-axis force per amp [N/A]

    def __post_init__(self):
        if self.mass <= 0.0 or self.stiffness <= 0.0:
            raise ValueError("mass and stiffness must be > 0")
        if self.damping < 0.0:
            raise ValueError("damping must be >= 0")

    @classmethod
    def from_params(cls, params: ActuatorParams, x_r: float = 0.0,
                    v_r: float = 0.0) -> "PlantState":
        return cls(x_r=x_r, v_r=v_r, mass=params.effective_mass,
                   damping=params.effective_damping, stiffness=params.k_r,
                   force_per_amp=params.drive_constant)


def rk4_step(f: Callable, t: float, y: Sequence[float], h: float) -> tuple:
    """One classical RK4 step of y' = f(t, y) over h; y and f(t, y) are
    equal-length sequences of floats."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, tuple(s + 0.5 * h * d for s, d in zip(y, k1)))
    k3 = f(t + 0.5 * h, tuple(s + 0.5 * h * d for s, d in zip(y, k2)))
    k4 = f(t + h, tuple(s + h * d for s, d in zip(y, k3)))
    return tuple(s + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(y, k1, k2, k3, k4))


def step_plant(state: PlantState, motor_current: float, external_force: float,
               dt: float) -> PlantState:
    """One RK4 step with zero-order-held current and external force."""
    if not 0.0 < dt <= 1e-3:
        raise ValueError("dt must be in (0, 1e-3]")
    f_in = state.force_per_amp * motor_current + external_force
    inv_m = 1.0 / state.mass
    b, k = state.damping, state.stiffness
    x, v = rk4_step(lambda _t, y: (y[1], (f_in - b * y[1] - k * y[0]) * inv_m),
                    0.0, (state.x_r, state.v_r), dt)
    if not (math.isfinite(x) and math.isfinite(v)):
        raise NonFiniteState("plant state diverged")
    return PlantState(x_r=x, v_r=v, mass=state.mass, damping=state.damping,
                      stiffness=state.stiffness, force_per_amp=state.force_per_amp)


def mechanical_energy(state: PlantState) -> float:
    """Kinetic plus spring potential energy [J]."""
    return 0.5 * state.mass * state.v_r ** 2 + 0.5 * state.stiffness * state.x_r ** 2


def _zoh_step(a, b) -> Callable[[list, float], list]:
    """Exact per-period update y -> Ad y + Bd u of the linear plant
    x' = A x + B u, with the scalar input u held over CONTROL_DT. States
    are lists of floats."""
    adb = np.hstack(zoh_discretize(a, b, CONTROL_DT))
    return lambda y, u: adb.dot((*y, u)).tolist()


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
    offset: float = 0.0
    phase_rad: float = 0.0

    def value(self, t: float) -> float:
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.freq_hz * t + self.phase_rad)


@dataclass(frozen=True)
class ChirpRef:
    """Exponential sweep from f0 to f1 over the given duration."""

    amplitude: float
    f0_hz: float
    f1_hz: float
    duration_s: float
    offset: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.f0_hz < self.f1_hz):
            raise ValueError("need 0 < f0_hz < f1_hz")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be > 0")

    def value(self, t: float) -> float:
        r = (self.f1_hz / self.f0_hz) ** (1.0 / self.duration_s)
        phase = 2.0 * math.pi * self.f0_hz * (r ** t - 1.0) / math.log(r)
        return self.offset + self.amplitude * math.sin(phase)


# ------------------------------------------------------------- filters

class _TustinDeriv:
    """Bilinear discretization of w*s/(s+w)."""

    def __init__(self, cutoff_rad_s: float, dt: float):
        k = 2.0 / dt
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

    def __init__(self, num, den, dt: float):
        b2, b1, b0 = num[2], num[1], num[0]
        a2, a1, a0 = den[2], den[1], den[0]
        k = 2.0 / dt
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

    def __init__(self, params: ActuatorParams, gains: ControllerGains, dt: float):
        from .vlca import MissingFilterCutoff
        if gains.q_taud_cutoff is None:
            raise MissingFilterCutoff("q_taud_cutoff is unset")
        w, z = gains.q_taud_cutoff, gains.q_taud_zeta
        m = params.effective_mass
        b = params.effective_damping + gains.k_dm * params.n_m
        k = params.k_r * (1.0 + gains.k_p)
        den = (w * w, 2.0 * z * w, 1.0)
        self._q = _TustinBiquad((w * w, 0.0, 0.0), den, dt)
        scale = w * w / k
        self._g = _TustinBiquad((k * scale, b * scale, m * scale), den, dt)

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


class _DelayLine:
    """Fixed-length FIFO modeling the loop's command transport delay."""

    def __init__(self, n: int):
        self.length = max(n, 0)
        self._buf = deque([0.0] * n, maxlen=n) if n > 0 else None

    def push(self, u: float) -> float:
        if self._buf is None:
            return u
        out = self._buf[0]
        self._buf.append(u)  # a full deque drops the oldest entry
        return out


class DiscreteForceController:
    """One force-loop controller stepping at a fixed rate.

    step() takes the raw force target, the measured spring force, and the
    motor-side velocity in screw coordinates; it returns the current that
    reaches the amplifier this period (after the command delay and clip).
    """

    def __init__(self, kind: ControllerKind, params: ActuatorParams,
                 gains: ControllerGains, dt: float = CONTROL_DT):
        from .vlca import MissingFilterCutoff
        self.kind = kind
        self.params = params
        self.gains = gains
        self.dt = dt
        self.saturation_count = 0
        self._n = params.drive_constant
        self._integ = 0.0
        self._delay = _DelayLine(int(round(gains.delay_t / dt)))
        self._deriv = None
        self._dob = None
        if kind is ControllerKind.PDF:
            if gains.q_d_cutoff is None:
                raise MissingFilterCutoff("q_d_cutoff is unset")
            self._deriv = _TustinDeriv(gains.q_d_cutoff, dt)
            self._k_df = gains.resolved_k_df(params)
        if kind is ControllerKind.PDM_DOB:
            self._dob = _DobShaper(params, gains, dt)

    @property
    def latency_s(self) -> float:
        """Time between computing a command and it reaching the amplifier."""
        return self._delay.length * self.dt

    def step(self, f_target: float, f_meas: float, motor_velocity: float) -> float:
        g = self.gains
        f_ref = self._dob.shape(f_target, f_meas) if self._dob else f_target
        err = f_ref - f_meas
        damp = g.k_dm * self.params.n_m * motor_velocity
        if self.kind is ControllerKind.PDF:
            u = g.k_p * err + f_ref - self._k_df * self._deriv.step(f_meas)
        elif self.kind is ControllerKind.PIDM:
            integ_next = self._integ + err * self.dt
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
        return self._delay.push(i_cmd)


# --------------------------------------------------------------- traces

SIM_CSV_HEADER = "t_s,f_cmd_N,f_meas_N,f_loadcell_N,i_m_A,x_r_m,q_out,temp_C"


def _csv_cell(v: float) -> str:
    return "" if math.isnan(v) else f"{v:.10g}"


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
    q_out: np.ndarray        # output/joint position when meaningful, else nan
    temp_c: np.ndarray       # winding temperature when thermal enabled, else nan
    saturation_count: int = 0
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [SIM_CSV_HEADER]
        for k in range(len(self.t)):
            cells = (self.t[k], self.f_cmd[k], self.f_meas[k],
                     self.f_loadcell[k], self.i_m[k], self.x_r[k],
                     self.q_out[k], self.temp_c[k])
            lines.append(",".join(_csv_cell(float(c)) for c in cells))
        return "\n".join(lines) + "\n"


def _blank_trace(n: int, dt: float) -> SimTrace:
    nan = np.full(n, math.nan)
    return SimTrace(dt=dt, t=np.arange(n) * dt, f_cmd=np.zeros(n),
                    f_meas=np.zeros(n), f_loadcell=np.zeros(n),
                    i_m=np.zeros(n), x_r=np.zeros(n), q_out=nan.copy(),
                    temp_c=nan.copy())


def _warn_if_saturated(trace: SimTrace, count: int):
    trace.saturation_count = count
    if count > 0:
        trace.meta["saturated"] = True
        warnings.warn(f"current clipped at {CURRENT_LIMIT_A:g} A on {count} "
                      f"control steps", SaturationWarning, stacklevel=3)


# ----------------------------------------------------------- force loop

def check_duration(duration: float) -> None:
    """The run-length check every simulator applies before it starts."""
    if duration <= 0.0:
        raise ValueError("duration must be > 0")


def run_force_tracking(kind: ControllerKind, gains: ControllerGains,
                       reference, duration: float,
                       params: ActuatorParams = VLCA_ACTUATOR,
                       external_force: Optional[Callable[[float], float]] = None,
                       thermal=None, cooling_on: bool = True) -> SimTrace:
    """Closed-loop force tracking against the locked-output plant.

    reference is any object with value(t) -> N. When thermal (ThermalParams)
    is given, a two-node winding model integrates alongside and fills the
    temperature column.
    """
    check_duration(duration)
    dt = CONTROL_DT
    n = int(round(duration / dt))
    ctrl = DiscreteForceController(kind, params, gains, dt)
    trace = _blank_trace(n, dt)
    trace.meta.update(kind=kind.value, reference=type(reference).__name__)

    k_r, b_r = params.k_r, params.b_r
    n_drive = params.drive_constant
    step = _zoh_step(*_locked_plant(params))
    y = [0.0, 0.0]

    therm_state = None
    if thermal is not None:
        from .powertherm import ThermalState, step_thermal
        therm_state = ThermalState(thermal.ambient_c, thermal.ambient_c)

    # the reference generator lives on the same clock as the controller,
    # so each command is computed for the instant it takes effect
    preview = ctrl.latency_s
    for k in range(n):
        t = k * dt
        x, v = y
        f_meas = k_r * x
        i_applied = ctrl.step(reference.value(t + preview), f_meas, v)
        f_ext = external_force(t) if external_force else 0.0
        trace.f_cmd[k] = reference.value(t)
        trace.f_meas[k] = f_meas
        trace.f_loadcell[k] = f_meas + b_r * v
        trace.i_m[k] = i_applied
        trace.x_r[k] = x
        if therm_state is not None:
            trace.temp_c[k] = therm_state.t_winding
            therm_state = step_thermal(therm_state, i_applied, cooling_on,
                                       dt, thermal)
        y = step(y, n_drive * i_applied + f_ext)
        if not all(map(math.isfinite, y)):
            raise NonFiniteState(f"plant state diverged at t={t:.3f} s")
    _warn_if_saturated(trace, ctrl.saturation_count)
    return trace


def run_plant_chirp(chirp: ChirpRef, params: ActuatorParams = VLCA_ACTUATOR,
                    settle_s: float = 0.5) -> SimTrace:
    """Open-loop chirp-current drive for identification.

    The commanded-force column holds the motor force (drive constant times
    current), so a response estimate against the measured spring force
    yields the force plant directly. A quiet tail of settle_s seconds lets
    the response ring out inside the record.
    """
    dt = CONTROL_DT
    n = int(round((chirp.duration_s + settle_s) / dt))
    trace = _blank_trace(n, dt)
    trace.meta.update(kind="open_loop_chirp", f0_hz=chirp.f0_hz,
                      f1_hz=chirp.f1_hz)
    k_r, b_r = params.k_r, params.b_r
    n_drive = params.drive_constant
    step = _zoh_step(*_locked_plant(params))
    y = [0.0, 0.0]
    for k in range(n):
        t = k * dt
        x, v = y
        i = chirp.value(t) if t <= chirp.duration_s else 0.0
        trace.f_cmd[k] = n_drive * i
        trace.f_meas[k] = k_r * x
        trace.f_loadcell[k] = k_r * x + b_r * v
        trace.i_m[k] = i
        trace.x_r[k] = x
        y = step(y, n_drive * i)
        if not all(map(math.isfinite, y)):
            raise NonFiniteState(f"plant state diverged at t={t:.3f} s")
    return trace


# ------------------------------------------------- response estimation

def empirical_frequency_response(trace: SimTrace,
                                 points_per_decade: int = 24) -> list:
    """Frequency response from the commanded-force column to the measured
    spring force, by windowed FFT ratio at log-spaced target frequencies.

    The excited band is inferred from the input spectrum and must span at
    least two decades; a local-consistency proxy below 0.9 raises
    InsufficientExcitation.
    """
    from .lintf import FrequencyResponsePoint

    u = np.asarray(trace.f_cmd, dtype=float)
    y = np.asarray(trace.f_meas, dtype=float)
    n = len(u)
    if n < 1024:
        raise InsufficientExcitation("record too short")
    # cosine-taper 2% of each end to suppress edge leakage
    win = np.ones(n)
    m = max(int(0.02 * n), 8)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    win[:m] = ramp
    win[-m:] = ramp[::-1]
    spec_u = np.fft.rfft(u * win)
    spec_y = np.fft.rfft(y * win)
    freqs = np.fft.rfftfreq(n, trace.dt)

    if trace.meta.get("kind") == "open_loop_chirp":
        # the drive column is a zero-order-held current record; divide the
        # hold's half-sample response back out so the estimate lands on the
        # continuous plant
        wdt = 2.0 * math.pi * freqs[1:] * trace.dt
        hold = (1.0 - np.exp(-1j * wdt)) / (1j * wdt)
        spec_u = spec_u.copy()
        spec_u[1:] *= hold

    mag_u = np.abs(spec_u)
    # ignore the mean and its leakage skirt when locating the excited band
    mag_band = mag_u.copy()
    mag_band[:4] = 0.0
    floor = 0.01 * mag_band.max()
    hot = np.nonzero(mag_band >= floor)[0]
    hot = hot[freqs[hot] > 0.0]
    if hot.size < 8:
        raise InsufficientExcitation("input spectrum carries no usable band")
    f_lo, f_hi = float(freqs[hot[0]]), float(freqs[hot[-1]])
    if f_hi / f_lo < 100.0:
        raise InsufficientExcitation(
            f"excited band {f_lo:.3g}-{f_hi:.3g} Hz spans under two decades")

    # keep clear of the rolloff at the band edges
    targets = np.geomspace(f_lo * 1.26, f_hi / 1.26,
                           max(int(math.log10(f_hi / f_lo) * points_per_decade), 8))
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

@dataclass(frozen=True)
class PositionLoopGains:
    k_p: float   # commanded force per meter of output error [N/m]
    k_d: float   # commanded force per m/s of motor-side speed [N*s/m]

    def __post_init__(self):
        if self.k_p <= 0.0 or self.k_d < 0.0:
            raise ValueError("k_p must be > 0 and k_d >= 0")


DEFAULT_POSITION_GAINS = PositionLoopGains(k_p=4.0e5, k_d=6.0e4)

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


def two_mass_plant(element: str, params: ActuatorParams = VLCA_ACTUATOR,
                   load_mass: float = DEFAULT_REFLECTED_LOAD_KG):
    """Open-loop (A, B) of the position-loop plant in screw coordinates:
    state (x_m, v_m, x_l, v_l), input motor force [N]. The drivetrain mass
    drives the reflected joint load through the series spring/damper."""
    k_s, b_s = spring_element(element, params)
    m_m = params.j_m * params.n_m ** 2 + params.m_r  # drivetrain side [kg]
    b_dt = params.b_m * params.n_m ** 2   # drivetrain drag [N*s/m]
    m_l = load_mass
    a = np.array([[0.0, 1.0, 0.0, 0.0],
                  [-k_s / m_m, -(b_dt + b_s) / m_m, k_s / m_m, b_s / m_m],
                  [0.0, 0.0, 0.0, 1.0],
                  [k_s / m_l, b_s / m_l, -k_s / m_l, -b_s / m_l]])
    return a, np.array([[0.0], [1.0 / m_m], [0.0], [0.0]])


def run_joint_position_control(element: str,
                               position_gains: PositionLoopGains = DEFAULT_POSITION_GAINS,
                               step_rad: float = 0.05,
                               duration: float = 3.0,
                               params: ActuatorParams = VLCA_ACTUATOR,
                               load_mass: float = DEFAULT_REFLECTED_LOAD_KG,
                               moment_arm: float = DEFAULT_MOMENT_ARM) -> SimTrace:
    """Joint step response through the chosen series element.

    The position loop reads the output, damps motor speed, and commands
    current to the two_mass_plant.
    """
    check_duration(duration)
    if load_mass <= 0.0 or moment_arm <= 0.0:
        raise ValueError("load_mass and moment_arm must be > 0")
    k_s, b_s = spring_element(element, params)
    n_drive = params.drive_constant
    x_des = moment_arm * step_rad

    dt = CONTROL_DT
    n = int(round(duration / dt))
    trace = _blank_trace(n, dt)
    trace.meta.update(kind="position_step", element=element,
                      step_rad=step_rad)
    delay = _DelayLine(int(round(1e-3 / dt)))
    sat = 0
    step = _zoh_step(*two_mass_plant(element, params, load_mass))
    y = [0.0] * 4

    for k in range(n):
        xm, vm, xl, vl = y
        f_cmd = position_gains.k_p * (x_des - xl) - position_gains.k_d * vm
        i_cmd = f_cmd / n_drive
        if abs(i_cmd) > CURRENT_LIMIT_A:
            i_cmd = math.copysign(CURRENT_LIMIT_A, i_cmd)
            sat += 1
        i_applied = delay.push(i_cmd)
        defl = xm - xl
        trace.f_cmd[k] = f_cmd
        trace.f_meas[k] = k_s * defl
        trace.f_loadcell[k] = k_s * defl + b_s * (vm - vl)
        trace.i_m[k] = i_applied
        trace.x_r[k] = defl
        trace.q_out[k] = xl / moment_arm
        y = step(y, n_drive * i_applied)
        if not all(map(math.isfinite, y)):
            raise NonFiniteState(f"position loop diverged at t={k * dt:.3f} s")
    trace.meta["x_des_m"] = x_des
    if step_rad != 0.0:
        trace.meta["overshoot_frac"] = overshoot_fraction(trace.q_out, step_rad)
        trace.meta["settling_time_s"] = settling_time(trace.t, trace.q_out,
                                                      step_rad)
    _warn_if_saturated(trace, sat)
    return trace


def position_loop_matrix(element: str,
                         position_gains: PositionLoopGains = DEFAULT_POSITION_GAINS,
                         params: ActuatorParams = VLCA_ACTUATOR,
                         load_mass: float = DEFAULT_REFLECTED_LOAD_KG) -> np.ndarray:
    """Continuous closed-loop state matrix A - B K of the two_mass_plant
    under the position law f = k_p (x_des - x_l) - k_d v_m, delay and
    sampling ignored; handy for modal damping analysis."""
    a, b = two_mass_plant(element, params, load_mass)
    k = np.array([[0.0, position_gains.k_d, position_gains.k_p, 0.0]])
    return a - b @ k


# --------------------------------------------------------------- impact

@dataclass(frozen=True)
class ImpactConfig:
    grounding: str = "viscoelastic"  # or "rigid"
    impulse_ns: float = 20.0         # hammer impulse [N*s]
    pulse_width_s: float = 2e-3      # half-sine width [s]
    sensor_mass_kg: float = 0.5      # struck cap and cell mass [kg]
    duration_s: float = 0.3

    def __post_init__(self):
        if self.grounding not in ("rigid", "viscoelastic"):
            raise ValueError("grounding must be 'rigid' or 'viscoelastic'")
        if self.impulse_ns < 0.0:
            raise ValueError("impulse_ns must be >= 0")
        if not 0.5e-3 <= self.pulse_width_s <= 5e-3:
            raise ValueError("pulse_width_s must be within [0.5, 5] ms")
        if self.sensor_mass_kg <= 0.0:
            raise ValueError("sensor_mass_kg must be > 0")
        if self.duration_s <= self.pulse_width_s:
            raise ValueError("duration_s must exceed the pulse width")


def run_impact(config: ImpactConfig,
               params: ActuatorParams = VLCA_ACTUATOR) -> SimTrace:
    """Hammer strike along the screw axis with the controller idle.

    The struck assembly is the drivetrain's effective mass plus the sensor
    cap. With the viscoelastic mount the reaction closes through the spring
    element; with the rigid mount the spring is bypassed and the assembly
    only sees drivetrain drag. The load-cell column holds the force
    transmitted past the cap: hammer force minus the cap's inertial share.
    """
    w = config.pulse_width_s
    f_peak = config.impulse_ns * math.pi / (2.0 * w)
    m_tot = params.effective_mass + config.sensor_mass_kg
    b_dt = params.b_m * params.n_m ** 2
    visco = config.grounding == "viscoelastic"
    k_s = params.k_r if visco else 0.0
    b_s = params.b_r if visco else 0.0

    def hammer(t: float) -> float:
        return f_peak * math.sin(math.pi * t / w) if 0.0 <= t <= w else 0.0

    inv_m = 1.0 / m_tot

    def deriv(t: float, y: tuple) -> tuple:
        x, v = y
        return v, (hammer(t) - (b_dt + b_s) * v - k_s * x) * inv_m

    dt = CONTROL_DT
    # resolve the short pulse: RK4 substeps while the hammer acts, then the
    # unforced plant's exact step
    sub = 50
    h = dt / sub
    free_step = _zoh_step([[0.0, 1.0], [-k_s * inv_m, -(b_dt + b_s) * inv_m]],
                          [0.0, 0.0])
    n = int(round(config.duration_s / dt))
    trace = _blank_trace(n, dt)
    trace.meta.update(kind="impact", grounding=config.grounding,
                      f_peak_n=f_peak)
    y = (0.0, 0.0)
    for k in range(n):
        t = k * dt
        x, acc = y[0], deriv(t, y)[1]
        trace.f_cmd[k] = 0.0
        trace.f_meas[k] = k_s * x
        trace.f_loadcell[k] = hammer(t) - config.sensor_mass_kg * acc
        trace.i_m[k] = 0.0
        trace.x_r[k] = x if visco else 0.0
        if t < w:
            for j in range(sub):
                y = rk4_step(deriv, t + j * h, y, h)
        else:
            y = free_step(y, 0.0)
        if not all(map(math.isfinite, y)):
            raise NonFiniteState(f"impact response diverged at t={t:.3f} s")
    return trace


# -------------------------------------------------------------- metrics

def overshoot_fraction(y: Sequence[float], y_final: float) -> float:
    """Peak excursion past the final value, as a fraction of it."""
    if y_final == 0.0:
        raise ValueError("y_final must be nonzero")
    y = np.asarray(y, dtype=float)
    peak = float(np.max(y * math.copysign(1.0, y_final)))
    return max(peak - abs(y_final), 0.0) / abs(y_final)


def settling_time(t: Sequence[float], y: Sequence[float], y_final: float,
                  band: float = 0.02) -> float:
    """Time after which |y - y_final| stays within band*|y_final|; inf if
    it never does."""
    if y_final == 0.0:
        raise ValueError("y_final must be nonzero")
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    outside = np.abs(y - y_final) > band * abs(y_final)
    if not outside.any():
        return float(t[0])
    last = int(np.nonzero(outside)[0][-1])
    if last == len(t) - 1:
        return math.inf
    return float(t[last + 1])
