"""Layer spans recorded from outside the program.

`Tracer.installed()` replaces each public function in TARGETS with a
timing wrapper, in its own module and in every vlcasim module that
imported it by name (`from .lintf import stability_margins` makes a second
binding that a wrap of `lintf` alone would miss). Methods are wrapped on
their class. Per-step methods such as `DiscreteForceController.step` are
never wrapped; step counts come from the length of the returned trace.

Spans stay in memory as (name, start, end, parent, attrs) and are turned
into per-layer metrics after the traced batch.
"""

import contextlib
import functools
import statistics
import sys
import time

TARGETS = (
    "lintf.stability_margins", "lintf.bode_sweep", "lintf.frf_to_csv",
    "vlca.calibrate_margins", "vlca.margin_table", "vlca.open_loop_tf",
    "simkit.run_force_tracking", "simkit.run_plant_chirp",
    "simkit.run_joint_position_control", "simkit.run_impact",
    "simkit.empirical_frequency_response", "simkit.SimTrace.to_csv",
    "testbed.simulate_osc", "testbed.TestbedTrace.to_csv",
    "powertherm.calibrate_thermal", "powertherm.simulate_constant_current",
    "powertherm.thermal_trace_to_csv", "powertherm.power_flow",
    "powertherm.power_series",
    "elastomat.rank_materials",
    "svgplot.line_chart",
    "cli.build_run_spec", "cli.run",
)

SCENARIOS = ("bode", "margins", "force_tracking", "position_step", "impact",
             "osc", "thermal", "efficiency", "materials")
OSC_MODES = ("ideal_torque", "cascaded_vlca")

# (name, unit, better); the order is the print order
LAYER_METRICS = (
    ("lintf.stability_margins.calls", "count", "lower"),
    ("lintf.stability_margins.s", "s", "lower"),
    ("lintf.stability_margins.p50_ms", "ms", "lower"),
    ("lintf.stability_margins.p90_ms", "ms", "lower"),
    ("lintf.stability_margins.no_crossover", "count", "lower"),
    ("lintf.bode_sweep.s", "s", "lower"),
    ("lintf.frf_to_csv.s", "s", "lower"),
    ("vlca.calibrate_margins.s", "s", "lower"),
    ("vlca.calibrate_margins.scans", "count", "lower"),
    ("vlca.margin_table.s", "s", "lower"),
    ("vlca.open_loop_tf.calls", "count", "lower"),
    ("vlca.open_loop_tf.self_s", "s", "lower"),
    ("simkit.run_force_tracking.step_us", "us", "lower"),
    ("simkit.run_force_tracking.steps", "count", "lower"),
    ("simkit.run_plant_chirp.step_us", "us", "lower"),
    ("simkit.run_joint_position_control.step_us", "us", "lower"),
    ("simkit.run_impact.step_us", "us", "lower"),
    ("simkit.empirical_frequency_response.s", "s", "lower"),
    ("simkit.SimTrace.to_csv.s", "s", "lower"),
    ("simkit.SimTrace.to_csv.bytes", "bytes", "lower"),
    ("testbed.simulate_osc.ideal_torque.step_us", "us", "lower"),
    ("testbed.simulate_osc.cascaded_vlca.step_us", "us", "lower"),
    ("testbed.simulate_osc.steps", "count", "lower"),
    ("testbed.TestbedTrace.to_csv.s", "s", "lower"),
    ("testbed.TestbedTrace.to_csv.bytes", "bytes", "lower"),
    ("powertherm.calibrate_thermal.s", "s", "lower"),
    ("powertherm.simulate_constant_current.s", "s", "lower"),
    ("powertherm.thermal_trace_to_csv.s", "s", "lower"),
    ("powertherm.thermal_trace_to_csv.bytes", "bytes", "lower"),
    ("powertherm.power_flow.s", "s", "lower"),
    ("powertherm.power_series.s", "s", "lower"),
    ("elastomat.rank_materials.s", "s", "lower"),
    ("svgplot.line_chart.calls", "count", "lower"),
    ("svgplot.line_chart.s", "s", "lower"),
    ("svgplot.line_chart.bytes", "bytes", "lower"),
    ("cli.build_run_spec.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    *((f"cli.run.{sc}.p50_s", "s", "lower") for sc in SCENARIOS),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _attrs(name, args, kwargs, result):
    """Counts taken at the boundary: bytes of returned text, trace
    lengths, the leg mode and the CLI scenario."""
    if isinstance(result, str):
        return {"bytes": len(result.encode())}
    attrs = {}
    t = getattr(result, "t", None)
    if t is not None and hasattr(t, "__len__"):
        attrs["steps"] = len(t)
    if name == "testbed.simulate_osc":
        attrs["mode"] = args[2] if len(args) > 2 else kwargs["mode"]
    elif name == "cli.run":
        attrs["scenario"] = result.scenario
    return attrs


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, attrs]
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            span[4].update(_attrs(name, args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore
        the original bindings."""
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "vlcasim" or n.startswith("vlcasim."))}
        patches = []  # (owner, attribute, original)
        try:
            for target in TARGETS:
                mod_name, _, attr = target.partition(".")
                owner = mods[f"vlcasim.{mod_name}"]
                if "." in attr:  # method: wrap on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(target, orig))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(target, orig)
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            patches.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(patches):
                setattr(owner, key, orig)

    def take(self):
        """Hand over the recorded spans and start a fresh record."""
        spans, self.spans = self.spans, []
        self._stack.clear()
        return spans


def layer_metrics(spans, bytes_written):
    """Per-layer metrics of one traced batch (all LAYER_METRICS except
    trace.overhead_frac)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        by.setdefault(name, []).append((end - start, end - start - child[i],
                                        attrs, i))

    def calls(name):
        return len(by.get(name, ()))

    def total(name):
        return sum(d for d, _, _, _ in by.get(name, ()))

    def self_total(name):
        return sum(s for _, s, _, _ in by.get(name, ()))

    def attr_sum(name, key):
        return sum(a.get(key, 0) for _, _, a, _ in by.get(name, ()))

    def step_us(name, mode=None):
        rows = [(s, a["steps"]) for _, s, a, _ in by.get(name, ())
                if "steps" in a and (mode is None or a.get("mode") == mode)]
        steps = sum(n for _, n in rows)
        return sum(s for s, _ in rows) / steps * 1e6 if steps else 0.0

    def quantile_ms(name, q):
        durs = sorted(d for d, _, _, _ in by.get(name, ()))
        if not durs:
            return 0.0
        if len(durs) == 1:
            return durs[0] * 1e3
        return statistics.quantiles(durs, n=10, method="inclusive")[q - 1] * 1e3

    def under(idx, ancestor):
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    sm = "lintf.stability_margins"
    cal = "vlca.calibrate_margins"
    cal_scans = sum(1 for _, _, _, i in by.get(sm, ()) if under(i, cal))
    m = {
        f"{sm}.calls": calls(sm),
        f"{sm}.s": total(sm),
        f"{sm}.p50_ms": quantile_ms(sm, 5),
        f"{sm}.p90_ms": quantile_ms(sm, 9),
        f"{sm}.no_crossover": sum(1 for _, _, a, _ in by.get(sm, ())
                                   if a.get("error") == "NoCrossover"),
        "lintf.bode_sweep.s": total("lintf.bode_sweep"),
        "lintf.frf_to_csv.s": total("lintf.frf_to_csv"),
        f"{cal}.s": total(cal),
        f"{cal}.scans": cal_scans / calls(cal) if calls(cal) else 0,
        "vlca.margin_table.s": total("vlca.margin_table"),
        "vlca.open_loop_tf.calls": calls("vlca.open_loop_tf"),
        "vlca.open_loop_tf.self_s": self_total("vlca.open_loop_tf"),
        "simkit.run_force_tracking.step_us": step_us("simkit.run_force_tracking"),
        "simkit.run_force_tracking.steps": attr_sum("simkit.run_force_tracking",
                                                    "steps"),
        "simkit.run_plant_chirp.step_us": step_us("simkit.run_plant_chirp"),
        "simkit.run_joint_position_control.step_us":
            step_us("simkit.run_joint_position_control"),
        "simkit.run_impact.step_us": step_us("simkit.run_impact"),
        "simkit.empirical_frequency_response.s":
            total("simkit.empirical_frequency_response"),
        "simkit.SimTrace.to_csv.s": total("simkit.SimTrace.to_csv"),
        "simkit.SimTrace.to_csv.bytes": attr_sum("simkit.SimTrace.to_csv",
                                                 "bytes"),
        **{f"testbed.simulate_osc.{mode}.step_us":
           step_us("testbed.simulate_osc", mode) for mode in OSC_MODES},
        "testbed.simulate_osc.steps": attr_sum("testbed.simulate_osc", "steps"),
        "testbed.TestbedTrace.to_csv.s": total("testbed.TestbedTrace.to_csv"),
        "testbed.TestbedTrace.to_csv.bytes": attr_sum(
            "testbed.TestbedTrace.to_csv", "bytes"),
        "powertherm.calibrate_thermal.s": total("powertherm.calibrate_thermal"),
        "powertherm.simulate_constant_current.s":
            total("powertherm.simulate_constant_current"),
        "powertherm.thermal_trace_to_csv.s":
            total("powertherm.thermal_trace_to_csv"),
        "powertherm.thermal_trace_to_csv.bytes":
            attr_sum("powertherm.thermal_trace_to_csv", "bytes"),
        "powertherm.power_flow.s": total("powertherm.power_flow"),
        "powertherm.power_series.s": total("powertherm.power_series"),
        "elastomat.rank_materials.s": total("elastomat.rank_materials"),
        "svgplot.line_chart.calls": calls("svgplot.line_chart"),
        "svgplot.line_chart.s": total("svgplot.line_chart"),
        "svgplot.line_chart.bytes": attr_sum("svgplot.line_chart", "bytes"),
        "cli.build_run_spec.s": total("cli.build_run_spec"),
        "cli.run.self_s": self_total("cli.run"),
        "cli.bytes_written": bytes_written,
    }
    for sc in SCENARIOS:
        durs = [d for d, _, a, _ in by.get("cli.run", ())
                if a.get("scenario") == sc]
        m[f"cli.run.{sc}.p50_s"] = statistics.median(durs) if durs else 0.0
    return m
