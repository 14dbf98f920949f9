"""Fixed-step time-domain simulation of the actuator force loops.

Controllers run at 1 kHz with a whole number of periods of command delay
and hold their current over each period. Every plant here is linear, so
each advances by its exact zero-order-hold map, one step per period: the
force loop, the chirp and the position loop under their held current, and
the hammer strike with its half-sine pulse carried as an oscillator in the
state. Each run is one generated kernel (_run_factory): the loop itself,
with the run's command lines, the map's rows summed left to right in
column order, and the recording of the states, so a period makes no
Python call; powertherm's thermal network runs the same way. A built-in
force reference states its law once, as a source expression (_law), which
the force loop's kernel writes in as a line and _sampler evaluates over
the trace's times; only a reference of another class is called, through
its value. Every generated kernel, the leg's in testbed too, is one
flat function that takes its run constants as arguments, compiled by
_compile. The force laws are stated once, as the tagged source lines
_FORCE_LINES, which the force loop and the leg's cascaded mode write into
their kernels; the position loop writes their clip. A run checks its
states once, after the loop, and returns a SimTrace built once. The only
Runge-Kutta integration is the leg's fixed-step Dormand-Prince map
(testbed._leg_kernel). Saturation clips commanded current at the
amplifier limit and is counted and warned of, not fatal.
"""

from __future__ import annotations

import linecache
import math
import re
import warnings
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .lintf import FrequencyResponsePoint, csv_table, zoh_discretize
from .vlca import (ActuatorParams, ControllerGains, ControllerKind,
                   DEFAULT_MOMENT_ARM, VLCA_ACTUATOR, q_taud_tf)


class NonFiniteState(ArithmeticError):
    """Integration produced NaN or infinity."""


class InsufficientExcitation(ValueError):
    """Recorded data cannot support the frequency estimate: bad input."""


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

# the globals of every generated kernel: the names its lines read beside
# its arguments
_KERNEL_GLOBALS = {"array": array, "copysign": math.copysign, "cos": math.cos,
                   "sin": math.sin, "sqrt": math.sqrt}


def _compile(src: str, filename: str, name: str):
    """The function `name` that the generated source src defines, compiled
    under filename with a copy of _KERNEL_GLOBALS as its globals. src is
    registered in linecache under filename, so that a traceback shows its
    lines."""
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(src, filename, "exec"), namespace)
    return namespace[name]


def _renamed(line: str, names: dict) -> str:
    """line with every name in names replaced by its value."""
    return re.sub(r"\w+", lambda w: names.get(w[0], w[0]), line)


@lru_cache(maxsize=None)
def _run_factory(name: str, n: int, args: tuple, maps: tuple, start: tuple,
                 body: tuple, ret: tuple):
    """run(**args) -> (history, *ret): one linear run as one generated
    function, compiled under the file name <name>. The n states x0, x1, ...
    arrive as arguments and are recorded in history, an array("d"), after
    the start lines have run. Then each map p of maps in turn advances them
    p_steps periods: period k (counted from 0 in each map) runs the body
    lines, which leave the input u held over it, maps the state by the
    n x (n+1) entries p<i>_<j>, each row summed left to right in column
    order (x0, ..., u), and records it. The source is compiled once per
    argument tuple, as dataclasses and namedtuple build their methods; every
    float reaches the run unchanged, non-finite ones included."""
    xs = [f"x{i}" for i in range(n)]
    state = ", ".join(xs)
    src = [f"def run({', '.join(args)}):", *(f"    {line}" for line in start),
           f"    xs = array('d', ({state},))"]
    for p in maps:
        sums = ", ".join(" + ".join(f"{p}{i}_{j} * {c}"
                                    for j, c in enumerate(xs + ["u"]))
                         for i in range(n))
        src += [f"    for k in range({p}_steps):",
                *(f"        {line}" for line in body),
                f"        {state} = {sums}",
                *(f"        xs.append({x})" for x in xs)]
    src.append(f"    return xs, {''.join(r + ', ' for r in ret)}")
    return _compile("\n".join(src) + "\n", f"<{name}>", "run")


def _simulate(name: str, maps: dict, x0: Sequence[float],
              start: Sequence[str] = (), body: Sequence[str] = (),
              ret: Sequence[str] = (), period_s: float = CONTROL_DT, **args):
    """Run the linear run kernel `name` (_run_factory) from the state x0:
    maps holds, per map prefix, the n x (n+1) map [Ad | Bd] and its period
    count, in the order the run takes them; args are the other names the
    lines read. Returns (states, *ret): states holds x0 and the state after
    each period, one row each, checked once, after the run.
    NonFiniteState names the start of the period whose step first left
    the floats, or t=0 for a non-finite x0."""
    args = {**{f"x{i}": v for i, v in enumerate(x0)},
            **{f"{p}_steps": steps for p, (_, steps) in maps.items()},
            **{f"{p}{i}_{j}": v for p, (adb, _) in maps.items()
               for i, row in enumerate(adb.tolist()) for j, v in enumerate(row)},
            **args}
    run = _run_factory(name, len(x0), tuple(args), tuple(maps), tuple(start),
                       tuple(body), tuple(ret))
    history, *rest = run(**args)
    states = np.frombuffer(history).reshape(-1, len(x0))
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise NonFiniteState(f"plant state diverged at "
                             f"t={max(bad.argmax() - 1, 0) * period_s:.3f} s")
    return (states, *rest)


def _zoh_map(plant) -> np.ndarray:
    """[Ad | Bd] of the linear plant (A, B) = plant held over CONTROL_DT."""
    return np.hstack(zoh_discretize(*plant, CONTROL_DT))


def _run_linear(plant, inputs: Sequence[float]) -> np.ndarray:
    """State history of the linear plant (A, B) = plant from rest under the
    open-loop input inputs[k] held over period k: row k is the state at the
    start of period k, for each of the len(inputs) periods. Each period
    advances by the exact zero-order-hold map x -> Ad x + Bd u."""
    inputs = np.ascontiguousarray(inputs, dtype=float)
    adb = _zoh_map(plant)
    n = adb.shape[0]
    states, = _simulate(f"simkit._run_linear n={n}", {"a": (adb, len(inputs))},
                        [0.0] * n, body=["u = inputs[k]"],
                        inputs=memoryview(inputs))
    return states[:len(inputs)]


def _locked_plant(params: ActuatorParams):
    """(A, B) of the locked-output spring plant: state (x_r, v_r), input
    screw-axis force [N]."""
    m, b, k = params.effective_mass, params.effective_damping, params.k_r
    return (np.array([[0.0, 1.0], [-k / m, -b / m]]),
            np.array([[0.0], [1.0 / m]]))


# ---------------------------------------------------------- references

def _law(names: str, law: str):
    """Class decorator of a built-in reference: its law is law, one
    expression of t over the constants names, which the reference's
    _law_constants() gives in that order. value(t) is compiled from law
    when the class is made (it is no run kernel, and linecache does not
    hold it); the force loop's kernel and _sampler write law into their
    lines, with each constant an argument named ref_<name>
    (_reference_law), so that neither calls value."""
    def build(cls):
        src = (f"def value(self, t):\n    {names}, = self._law_constants()\n"
               f"    return {law}\n")
        namespace = dict(_KERNEL_GLOBALS)
        exec(compile(src, f"<simkit.{cls.__name__}.value>", "exec"), namespace)
        value = namespace["value"]
        value.__qualname__ = f"{cls.__name__}.value"
        prefixed = {n: f"ref_{n}" for n in names.split(", ")}
        value.law = (tuple(prefixed.values()), _renamed(law, prefixed))
        cls.value = value
        return cls
    return build


@_law("level, start_time", "level if t >= start_time else 0.0")
@dataclass(frozen=True)
class StepRef:
    level: float            # [N]
    start_time: float = 0.0

    def _law_constants(self) -> tuple:
        return self.level, self.start_time


@_law("start_level, end_level, start_time, ramp_time",
      "start_level if t <= start_time else end_level"
      " if t >= start_time + ramp_time"
      " else start_level + (t - start_time) / ramp_time * (end_level - start_level)")
@dataclass(frozen=True)
class RampRef:
    start_level: float
    end_level: float
    start_time: float
    ramp_time: float

    def __post_init__(self):
        if self.ramp_time <= 0.0:
            raise ValueError("ramp_time must be > 0")

    def _law_constants(self) -> tuple:
        return self.start_level, self.end_level, self.start_time, self.ramp_time


# amplitude * sin(2.0 * pi * freq_hz * t), with 2.0 * pi * freq_hz as w
@_law("amplitude, w", "amplitude * sin(w * t)")
@dataclass(frozen=True)
class SineRef:
    amplitude: float
    freq_hz: float

    def _law_constants(self) -> tuple:
        return self.amplitude, 2.0 * math.pi * self.freq_hz


@_law("amplitude, r, w, log_r", "amplitude * sin(w * (r ** t - 1.0) / log_r)")
@dataclass(frozen=True)
class ChirpRef:
    """Exponential sweep from f0 to f1 over the given duration."""

    amplitude: float
    f0_hz: float
    f1_hz: float
    duration_s: float

    def __post_init__(self):
        if not self.f0_hz > 0.0:
            raise ValueError("f0_hz must be > 0")
        if not self.f1_hz > self.f0_hz:
            raise ValueError("f1_hz must be above f0_hz")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be > 0")
        # the law's constants r, w, log_r, worked out once
        r = self.rate
        object.__setattr__(self, "_sweep",
                           (r, 2.0 * math.pi * self.f0_hz, math.log(r)))

    @property
    def rate(self) -> float:
        """Frequency growth per second of the sweep, f1/f0 ** (1/duration)."""
        return (self.f1_hz / self.f0_hz) ** (1.0 / self.duration_s)

    def _law_constants(self) -> tuple:
        return (self.amplitude, *self._sweep)


# --------------------------------------------------------- force law

def delay_samples(delay_t: float) -> int:
    """The loop delay in whole control periods; ValueError for a delay the
    1 kHz controller cannot realise (1e-9 relative tolerance)."""
    periods = delay_t / CONTROL_DT
    n = round(periods)
    if abs(periods - n) > 1e-9 * periods:
        raise ValueError(f"delay_t must be a whole number of {CONTROL_DT:g} s "
                         f"control periods, got {delay_t:g} s")
    return n


# The force-loop controllers as source lines, each tagged with the part of
# a law that takes it: "start" (the state each controller starts from),
# "dob" (the disturbance observer's G and Q biquads, direct form II
# transposed, and the f_ref solve), "pdf" (the filtered force derivative),
# "pidm" (the integrator with its hold at the rail), "pdm" (the PDM law,
# the observer's inner loop too), "clip" (the amplifier clip) and "back"
# (the observer's back-calculation). One period reads the raw force target
# f_target, the measured spring force f_meas and the motor-side screw
# speed v_m, and leaves the clipped current command in i_cmd; a law runs
# the lines of its parts (_FORCE_TAGS) in the order written. PDF
# differentiates the measured force through the bilinear map of w*s/(s+w).
# PDM_DOB runs the PDM law on the observer's reference
# f_ref = f_target + Q(f_ref) - G(f_meas), where Q is the margin model's
# low-pass (q_taud_tf) and G is Q over the PDM loop's closed-loop force
# response. Q's direct feedthrough qb0 < 1 is solved algebraically, so the
# observer adds no sample of delay beyond the loop's own. Q then advances
# on the reference the amplifier acted on: under current clipping, the one
# back-calculated from the clipped command, which keeps the integral-like
# observer from winding up.
_FORCE_LINES = [line.split(" ", 1) for line in """\
start gz1 = gz2 = qz1 = qz2 = dy = du = integ = 0.0
start sat = 0
dob gy = gb0 * f_meas + gz1
dob gz1, gz2 = gb1 * f_meas - ga1 * gy + gz2, gb2 * f_meas - ga2 * gy
dob f_ref = (f_target + qz1 - gy) / q_den
pdf deriv = da * dy + db * (f_meas - du)
pdf dy, du = deriv, f_meas
pdf u = k_p * (f_ref - f_meas) + f_ref - k_df * deriv
pidm err = f_ref - f_meas
pidm integ_next = integ + err * dt
pidm u = k_p * err + k_i * integ_next + f_ref - kdm_nm * v_m
pdm damp = kdm_nm * v_m
pdm u = k_p * (f_ref - f_meas) + f_ref - damp
clip i_cmd = u / n_drive
clip clipped = abs(i_cmd) > i_max
clip if clipped: i_cmd, sat = copysign(i_max, i_cmd), sat + 1
pidm if not clipped: integ = integ_next
back if clipped: f_ref = (i_cmd * n_drive + k_p * f_meas + damp) / (1.0 + k_p)
dob qy = qb0 * f_ref + qz1
dob qz1, qz2 = qb1 * f_ref - qa1 * qy + qz2, qb2 * f_ref - qa2 * qy""".splitlines()]
_FORCE_TAGS = {ControllerKind.PDF: frozenset({"pdf", "clip"}),
               ControllerKind.PDM: frozenset({"pdm", "clip"}),
               ControllerKind.PIDM: frozenset({"pidm", "clip"}),
               ControllerKind.PDM_DOB: frozenset({"dob", "pdm", "clip", "back"})}
# the names one controller owns: its inputs, its state and its temporaries
_FORCE_VARS = ("f_target", "f_meas", "v_m", "f_ref", "gy", "gz1", "gz2", "qy",
               "qz1", "qz2", "deriv", "dy", "du", "err", "integ", "integ_next",
               "damp", "u", "i_cmd", "clipped", "sat")


@lru_cache(maxsize=None)
def _force_law(tags: frozenset, suffix: str = ""):
    """(start lines, period lines), two tuples, of the _FORCE_LINES tagged
    with one of tags, each controller name (_FORCE_VARS) carrying suffix.
    Without the observer the reference is the target itself. Built once per
    (tags, suffix)."""
    names = {v: v + suffix for v in _FORCE_VARS}
    if "dob" not in tags:
        names["f_ref"] = names["f_target"]
    return (tuple(_renamed(line, names) for tag, line in _FORCE_LINES
                  if tag == "start"),
            tuple(_renamed(line, names) for tag, line in _FORCE_LINES
                  if tag in tags))


def _tustin(prefix: str, num, den) -> dict:
    """Coefficients <prefix>b0, b1, b2, a1, a2 of the bilinear
    discretization of (B2 s^2 + B1 s + B0)/(A2 s^2 + A1 s + A0)."""
    b2, b1, b0 = num[2], num[1], num[0]
    a2, a1, a0 = den[2], den[1], den[0]
    k = 2.0 / CONTROL_DT
    k2 = k * k
    d0 = a2 * k2 + a1 * k + a0
    return {prefix + "b0": (b2 * k2 + b1 * k + b0) / d0,
            prefix + "b1": (2.0 * b0 - 2.0 * b2 * k2) / d0,
            prefix + "b2": (b2 * k2 - b1 * k + b0) / d0,
            prefix + "a1": (2.0 * a0 - 2.0 * a2 * k2) / d0,
            prefix + "a2": (a2 * k2 - a1 * k + a0) / d0}


def force_law_constants(kind: ControllerKind, params: ActuatorParams,
                        gains: ControllerGains) -> dict:
    """The run constants kind's force law reads (_force_law), by name, with
    the loop delay in whole control periods as "delay": a command reaches
    the amplifier that many periods after it is computed. Raises ValueError
    for a delay the controller cannot realise (delay_samples) and
    MissingFilterCutoff for a filter the law needs but gains leave unset."""
    c = {"delay": delay_samples(gains.delay_t), "dt": CONTROL_DT,
         "k_p": gains.k_p, "k_i": gains.k_i, "kdm_nm": gains.k_dm * params.n_m,
         "n_drive": params.drive_constant, "i_max": CURRENT_LIMIT_A}
    if kind is ControllerKind.PDF:
        w, k = gains.cutoff("q_d_cutoff"), 2.0 / CONTROL_DT
        c.update(da=(k - w) / (k + w), db=w * k / (k + w),
                 k_df=gains.resolved_k_df(params))
    if kind is ControllerKind.PDM_DOB:
        q = q_taud_tf(gains)  # the margin model's observer filter, monic
        w2, den = q.num.coefficients[0], q.den.coefficients
        m = params.effective_mass
        b = params.effective_damping + gains.k_dm * params.n_m
        k = params.k_r * (1.0 + gains.k_p)
        scale = w2 / k
        c.update(_tustin("q", (w2, 0.0, 0.0), den))
        c.update(_tustin("g", (k * scale, b * scale, m * scale), den))
        c["q_den"] = 1.0 - c["qb0"]
    return c


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
    saturation_count: int = 0  # control steps whose current was clipped
    held_input: bool = False   # f_cmd held over each period (the chirp)

    def __post_init__(self):
        if self.q_out is None:
            self.q_out = np.full(len(self.t), math.nan)

    def to_csv(self) -> str:
        # no model here has a temperature: temp_C is an empty column
        return csv_table(SIM_CSV_HEADER, (
            self.t, self.f_cmd, self.f_meas, self.f_loadcell, self.i_m,
            self.x_r, self.q_out, np.full(len(self.t), math.nan)))


def _warn_if_saturated(trace: SimTrace) -> SimTrace:
    """trace, after a SaturationWarning if any of its steps clipped."""
    count = trace.saturation_count
    if count > 0:
        warnings.warn(f"current clipped at {CURRENT_LIMIT_A:g} A on {count} "
                      f"control steps", SaturationWarning, stacklevel=3)
    return trace


# ----------------------------------------------------------- force loop

def _reference_law(reference):
    """(label, law, args): reference's law as one expression of t over the
    arguments args, by name. A built-in reference's law is its own (_law),
    labelled " ref=<its class>"; any other reference's is ref_value(t),
    with its value passed in, labelled ""."""
    law = getattr(reference.value, "law", None)
    if law is None:
        return "", "ref_value(t)", {"ref_value": reference.value}
    names, expr = law
    return (f" ref={type(reference).__name__}", expr,
            dict(zip(names, reference._law_constants())))


@lru_cache(maxsize=None)
def _sampler(label: str, law: str, names: tuple):
    """sample(ts, *names) -> array("d") of law (_reference_law) at each t
    of ts, in order, compiled once per law under <simkit._sampler{label}>."""
    src = (f"def sample(ts, {', '.join(names)}):\n    out = array('d')\n"
           f"    for t in ts:\n        out.append({law})\n    return out\n")
    return _compile(src, f"<simkit._sampler{label}>", "sample")


def _sample(reference, ts: list) -> np.ndarray:
    """reference.value at each time of ts, by one _sampler call."""
    label, law, args = _reference_law(reference)
    return np.frombuffer(_sampler(label, law, tuple(args))(ts, **args))


def run_force_tracking(kind: ControllerKind, gains: ControllerGains,
                       reference, duration: float,
                       params: ActuatorParams = VLCA_ACTUATOR) -> SimTrace:
    """Closed-loop force tracking against the locked-output plant.

    reference is any object with value(t) -> N. A built-in reference's law
    is written into the run's kernel, whose periods then make no Python
    call; any other's value is called once a period, then once a sample of
    the f_cmd column.
    """
    n = control_steps(duration, "duration")
    law = force_law_constants(kind, params, gains)
    start, lines = _force_law(_FORCE_TAGS[kind])
    label, target, ref_args = _reference_law(reference)
    # the reference generator lives on the same clock as the controller,
    # so each command is computed for the instant it takes effect; the
    # command of period k reaches the amplifier in period k + delay
    states, cmds, saturated = _simulate(
        f"simkit.run_force_tracking kind={kind.value}{label}",
        {"a": (_zoh_map(_locked_plant(params)), n)}, [0.0, 0.0],
        start=[*start, "cmds = array('d', bytes(8 * delay))"],
        body=["t = k * dt + preview", f"f_target = {target}",
              "f_meas = k_r * x0", "v_m = x1", *lines, "cmds.append(i_cmd)",
              "u = n_drive * cmds[k]"],
        ret=["cmds", "sat"], preview=law["delay"] * CONTROL_DT,
        k_r=params.k_r, **ref_args, **law)
    x, v = states[:n].T
    t = np.arange(n) * CONTROL_DT
    f_meas = params.k_r * x
    return _warn_if_saturated(SimTrace(
        CONTROL_DT, t, _sample(reference, t.tolist()), f_meas=f_meas,
        f_loadcell=f_meas + params.b_r * v, i_m=np.frombuffer(cmds)[:n], x_r=x,
        saturation_count=saturated))


def chirp_record_samples(duration_s: float) -> int:
    """chirp_drive's record length: a duration_s sweep plus its quiet tail."""
    return control_steps(duration_s + CHIRP_SETTLE_S, "chirp_s")


def chirp_drive(chirp: ChirpRef) -> np.ndarray:
    """The identification drive current at each control step: the sweep,
    then zero over the quiet tail. Each sample is chirp's law at a Python
    float (_sample); numpy's r ** t rounds differently in about 5% of the
    samples of the default bode record."""
    t = np.arange(chirp_record_samples(chirp.duration_s)) * CONTROL_DT
    on = t <= chirp.duration_s
    drive = np.zeros(len(t))
    drive[on] = _sample(chirp, t[on].tolist())
    return drive


def run_plant_chirp(drive: np.ndarray,
                    params: ActuatorParams = VLCA_ACTUATOR) -> SimTrace:
    """Open-loop current drive for identification, one sample of drive
    (a chirp_drive record) per control step.

    The commanded-force column holds the motor force (drive constant times
    current), so a response estimate against the measured spring force
    yields the force plant directly.
    """
    with np.errstate(over="ignore"):  # a state past the floats raises below
        f_cmd = params.drive_constant * drive
    x, v = _run_linear(_locked_plant(params), f_cmd).T
    f_meas = params.k_r * x
    return SimTrace(CONTROL_DT, np.arange(len(drive)) * CONTROL_DT, f_cmd,
                    f_meas=f_meas, f_loadcell=f_meas + params.b_r * v,
                    i_m=drive, x_r=x, held_input=True)


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
    win, freqs, spec_u, f_lo, f_hi = excited_band(u, trace.dt,
                                                  trace.held_input)
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
    x_des = DEFAULT_MOMENT_ARM * step_rad
    start, clip = _force_law(frozenset({"clip"}))
    # the clipped command of period k is held over period k + 1: one period
    # of command delay
    states, cmds, clipped = _simulate(
        "simkit.run_joint_position_control",
        {"a": (_zoh_map(two_mass_plant(element, params)), n)}, [0.0] * 4,
        start=[*start, "cmds = array('d', [0.0])"],
        body=["u = kp * (x_des - x2) - kd * x1", *clip, "cmds.append(i_cmd)",
              "u = n_drive * cmds[k]"],
        ret=["cmds", "sat"], kp=POSITION_KP, kd=POSITION_KD, x_des=x_des,
        n_drive=params.drive_constant, i_max=CURRENT_LIMIT_A)
    xm, vm, xl, vl = states[:n].T
    f_cmd = POSITION_KP * (x_des - xl) - POSITION_KD * vm
    defl = xm - xl
    return _warn_if_saturated(SimTrace(
        CONTROL_DT, np.arange(n) * CONTROL_DT, f_cmd, f_meas=k_s * defl,
        f_loadcell=k_s * defl + b_s * (vm - vl), i_m=np.frombuffer(cmds)[:n],
        x_r=defl, q_out=xl / DEFAULT_MOMENT_ARM, saturation_count=clipped))


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
        if not math.isfinite(self.f_peak_n):
            raise ValueError(f"impulse_ns = {self.impulse_ns:g} N*s gives a "
                             "half-sine peak force past the float range")

    @property
    def f_peak_n(self) -> float:
        """Peak of the half-sine hammer force that delivers the impulse."""
        return self.impulse_ns * math.pi / (2.0 * self.pulse_width_s)


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
    w, f_peak = config.pulse_width_s, config.f_peak_n
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

    def held(ad):  # the strike has no input: a zero column for u
        return np.hstack((ad, np.zeros((4, 1))))

    dt = CONTROL_DT
    n = control_steps(IMPACT_DURATION_S, "IMPACT_DURATION_S")
    n_on = int(w / dt + 1e-9)  # whole periods under the pulse
    tail = w - n_on * dt       # the pulse's share of the period it ends in
    n_tail = int(tail > 1e-9 * dt)
    after = held(period(free, dt))
    # the segments: the strike, the period the pulse ends in when it ends
    # part way (struck, then free over the rest), and the free plant
    ends = (held(period(free, dt - tail) @ period(struck, tail)) if n_tail
            else after)
    states, = _simulate("simkit.run_impact",
                        {"s": (held(period(struck, dt)), n_on),
                         "t": (ends, n_tail),
                         "f": (after, n - 1 - n_on - n_tail)},
                        [0.0, 0.0, 0.0, 1.0], u=0.0)
    x, v = states[:, :2].T

    t = np.arange(n) * dt
    f_hammer = np.array([hammer(tk) for tk in t.tolist()])
    acc = (f_hammer - (b_dt + b_s) * v - k_s * x) * inv_m
    return SimTrace(dt, t, f_cmd=np.zeros(n), f_meas=k_s * x,
                    f_loadcell=f_hammer - IMPACT_SENSOR_MASS_KG * acc,
                    i_m=np.zeros(n), x_r=x if visco else np.zeros(n))


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
