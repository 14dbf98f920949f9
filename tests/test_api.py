"""The public names of the package."""
import vlcasim

PUBLIC = [
    "__version__",
    "ActuatorParams", "ControllerGains", "ControllerKind",
    "DEFAULT_MOMENT_ARM", "VLCA_ACTUATOR",
    "DelayedTransferFunction", "FrequencyResponsePoint", "Polynomial",
    "SecondOrderFit", "StabilityReport",
    "calibrate_margins", "closed_loop_tf", "fit_second_order", "force_plant",
    "margin_table", "open_loop_tf", "plant_px", "stability_margins",
    "sweep_response",
]


def test_public_names_are_stable_and_import():
    assert vlcasim.__all__ == PUBLIC
    namespace = {}
    exec("from vlcasim import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(vlcasim, name)
