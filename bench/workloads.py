"""Seeded config batches for the three benchmark workloads.

Each workload is a list of flat vlcasim configs (key -> string value, as
`vlcasim.cli.parse_config_text` would produce). The seed picks the
parameter draws; the program sees only the configs.

Draws are chosen so that the work in a batch hardly depends on the seed:
margin-scan cost grows about linearly with `gains.delay_t`, so the two
margins variants take delays d and 11 - d ms (whole 1 ms samples, d drawn
from 1-5), and force-tracking durations form a Latin square over
controller kind and reference, so every kind and every reference
simulates the same total time at every seed. Every range was checked
corner by corner to complete at the seed commit.
"""

import random

WORKLOADS = ("margins_design", "actuator_sim", "leg_sim")

KINDS = ("pd_f", "pd_m", "pid_m", "pd_m_dob")
REFERENCES = ("step", "ramp", "sine", "chirp")
TRACKING_DURATIONS_S = (1.0, 1.5, 2.0, 2.5)

# Leg runs are kept near one second each (both modes of an osc run, or a
# lift plus its 0.5 s tail), so that the witness brackets in speed.py sit
# close together; a 3 s osc run (the CLI default) takes 2.5-4 s here.
OSC_DURATION_S = "1"
LIFT_DURATION_S = "0.6"

# nominal plant and gains, scaled by the margins_design variants
NOMINAL = {"actuator.k_r": 5.5e6, "actuator.b_r": 2.0e4,
           "gains.k_p": 4.0, "gains.k_dm": 15.0}


def _num(x: float) -> str:
    return f"{x:.6g}"


def _scaled(rng: random.Random, nominal: float) -> str:
    """Log-uniform draw between 0.5x and 2x of nominal."""
    return _num(nominal * 2.0 ** rng.uniform(-1.0, 1.0))


def margins_design(rng: random.Random) -> list:
    configs = []
    d = rng.randint(1, 5)
    for delay_ms in (d, 11 - d):
        cfg = {"scenario": "margins", "gains.delay_t": _num(delay_ms * 1e-3)}
        for key, nominal in NOMINAL.items():
            cfg[key] = _scaled(rng, nominal)
        configs.append(cfg)
    configs.append({"scenario": "margins", "margins.calibrate": "1"})
    return configs


def actuator_sim(rng: random.Random) -> list:
    rows, cols, levels = ([*range(4)] for _ in range(3))
    for perm in (rows, cols, levels):
        rng.shuffle(perm)
    configs = []
    for i, kind in enumerate(KINDS):
        for j, ref in enumerate(REFERENCES):
            duration = TRACKING_DURATIONS_S[levels[(rows[i] + cols[j]) % 4]]
            configs.append({
                "scenario": "force_tracking",
                "force_tracking.kind": kind,
                "force_tracking.reference": ref,
                "force_tracking.duration_s": _num(duration),
                "force_tracking.amplitude_nm": _num(rng.uniform(15.0, 30.0)),
                "force_tracking.freq_hz": _num(rng.uniform(2.0, 8.0)),
            })
    configs.append({"scenario": "position_step",
                    "position_step.step_rad": _num(rng.uniform(0.03, 0.07))})
    configs.append({"scenario": "impact",
                    "impact.impulse_ns": _num(rng.uniform(10.0, 30.0))})
    configs.append({"scenario": "bode"})
    configs.append({"scenario": "thermal"})
    configs.append({"scenario": "materials"})
    return configs


def leg_sim(rng: random.Random) -> list:
    configs = []
    for _ in range(4):
        configs.append({"scenario": "osc", "osc.trajectory": "sine",
                        "osc.duration_s": OSC_DURATION_S,
                        "osc.freq_hz": _num(rng.uniform(0.5, 2.5)),
                        "osc.amplitude_m": _num(rng.uniform(0.05, 0.15)),
                        "osc.payload_kg": _num(rng.uniform(0.0, 20.0))})
    for _ in range(2):
        configs.append({"scenario": "osc", "osc.trajectory": "bspline",
                        "osc.duration_s": OSC_DURATION_S,
                        "osc.amplitude_m": _num(rng.uniform(0.05, 0.15)),
                        "osc.payload_kg": _num(rng.uniform(0.0, 20.0))})
    for _ in range(2):
        configs.append({"scenario": "efficiency",
                        "efficiency.duration_s": LIFT_DURATION_S,
                        "efficiency.payload_kg": _num(rng.uniform(5.0, 30.0)),
                        "efficiency.lift_m": _num(rng.uniform(0.1, 0.3))})
    return configs


def batch(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's configs for this seed, without `out`.

    The tiny batch keeps the first config of each scenario (counting a
    calibrating margins run as its own scenario), so every layer the
    workload touches still runs once.
    """
    configs = globals()[workload](random.Random(f"{workload}:{seed}"))
    if tiny:
        seen = set()
        kept = []
        for cfg in configs:
            key = (cfg["scenario"], cfg.get("margins.calibrate"))
            if key not in seen:
                seen.add(key)
                kept.append(cfg)
        configs = kept
    return configs
