"""The SVG writer maps whole series at once and draws long ones by M4;
each polyline must keep the bytes of the point-by-point mapping and
decimation in tests/oracles.py."""
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import m4_kept, polyline_points
from vlcasim import svgplot

NAN, INF = math.nan, math.inf
_RNG = np.random.default_rng(7)
_WALK = np.cumsum(_RNG.normal(size=4000)) * 1e-3
_DECADES = np.logspace(-2, 4, 3000)


def _near(x, k):
    """x and its k float neighbours on either side."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.sort(np.concatenate(out))


# samples beside the x.xx5 pixel ties of a 640 px axis, where one ulp of
# the mapping can move the written digit: a 0..3 linear axis, and a 1..1e4
# log axis (160 px per decade)
_PX_TIES = (np.arange(640)[:, None]
            + np.array([0.125, 0.375, 0.625, 0.875])).ravel()
_LIN_TIES = np.concatenate([[0.0], _near(_PX_TIES * 3.0 / 640.0, 10), [3.0]])
_LOG_TIES = np.concatenate([[1.0], _near(10.0 ** (_PX_TIES / 160.0), 10),
                            [1e4]])
# a chart draws every point of a series of at most 4 x 641 points, so the
# tie samples go out as several series of that length
_M4_MAX = 4 * 641


def _tie_series(x, y):
    return [(str(k), x[i:i + _M4_MAX], y[i:i + _M4_MAX])
            for k, i in enumerate(range(0, len(x), _M4_MAX))]


# a 40 s thermal trace: plateaus, steps and repeated values in each column
_T = np.linspace(0.0, 40.0, 34503)
_STAIRS = np.round(np.cumsum(_RNG.normal(size=len(_T))) * 0.02)
# x that steps back once, and a monotone series of exactly 4 x 641 points
_BACKSTEP = np.r_[np.linspace(0.0, 1.0, 3000), np.linspace(0.99, 2.0, 1000)]
_EXACT = np.linspace(0.0, 1.0, _M4_MAX)

CASES = {
    "linear": ([("a", np.linspace(0.0, 2.0, 2001),
                 np.sin(np.linspace(0.0, 40.0, 2001)))], False, False),
    "negative": ([("a", np.linspace(-5.0, -1.0, 4000), _WALK - 3.0),
                  ("b", np.linspace(-7.0, 2.0, 50), -np.arange(50.0))],
                 False, False),
    "near_minus_zero": ([("a", [-2e-3, -1e-3, -4e-4, -0.0, 0.0, 4e-4],
                          [-0.004, -0.0, -1e-300, 0.0049, -0.0049, -0.005])],
                        False, False),
    "logx": ([("a", _DECADES, -np.degrees(np.arctan(_DECADES))),
              ("b", _DECADES, -20.0 * np.log10(1.0 + _DECADES))],
             True, False),
    "linear_ties": (_tie_series(_LIN_TIES, _LIN_TIES[::-1]), False, False),
    "log_ties": (_tie_series(_LOG_TIES, np.linspace(0.0, 1.0, len(_LOG_TIES))),
                 True, False),
    "m4_stairs": ([("a", _T, _STAIRS), ("b", _T, np.sin(_T) * 50.0),
                   ("short", _T[::20], _STAIRS[::20])], False, False),
    "m4_logx": ([("a", np.logspace(-1, 3, 20000),
                  np.cos(np.logspace(-1, 3, 20000)))], True, False),
    "m4_logy": ([("a", _T, np.exp(np.sin(_T * 3.0)))], False, True),
    "m4_dropped_samples": ([("a", np.where(_STAIRS > 0.0, NAN, _T),
                             _STAIRS)], False, False),
    "non_monotone": ([("a", _BACKSTEP, np.sin(_BACKSTEP * 30.0))],
                     False, False),
    "exactly_4_per_column": ([("a", _EXACT, np.cos(_EXACT * 90.0))],
                             False, False),
    "loglog": ([("a", _DECADES, 1.0 / np.hypot(1.0, _DECADES))], True, True),
    "log_dropped_samples": (
        [("a", [0.0, -1.0, 1e-3, NAN, 0.1, INF, 10.0, 100.0, 1e3],
          [1.0, 2.0, 3.0, 4.0, -INF, 5.0, 0.0, -2.0, 7.0]),
         ("b", [1e-2, 1.0, 1e2, 1e4], [NAN, 1e-3, 1e3, 1e6])],
        True, True),
    "linear_dropped_samples": (
        [("a", [0.0, NAN, 1.0, 2.0, INF, 3.0], [1.0, 2.0, -INF, 4.0, 5.0, 6.0]),
         ("empty", [NAN, 1.0], [0.0, NAN])], False, False),
    "one_point": ([("a", [3.0], [-2.5])], False, False),
    "one_point_log": ([("a", [3.0], [2.5])], True, True),
    "flat": ([("a", np.linspace(0.0, 1.0, 300), np.full(300, 4.2))],
             False, False),
    "flat_zero": ([("a", np.linspace(-1.0, 1.0, 300), np.zeros(300))],
                  False, False),
}


def _kept(x, y, logx, logy):
    pts = [(a, b) for a, b in zip(np.asarray(x, float), np.asarray(y, float))
           if math.isfinite(a) and math.isfinite(b)
           and (a > 0.0 or not logx) and (b > 0.0 or not logy)]
    return np.array([a for a, _ in pts]), np.array([b for _, b in pts])


@pytest.mark.parametrize("case", CASES)
def test_polylines_match_the_point_by_point_mapping(case):
    series, logx, logy = CASES[case]
    kept = [_kept(x, y, logx, logy) for _, x, y in series]
    limits = svgplot._limits(kept, logy)
    expected = [polyline_points(*m4_kept(x, y, limits, logx, logy), limits,
                                logx, logy)
                for x, y in kept if len(x)]
    svg = svgplot.line_chart(series, title=case, logx=logx, logy=logy)
    assert re.findall(r'<polyline points="([^"]*)"', svg) == expected


@pytest.mark.parametrize("case", ["non_monotone", "exactly_4_per_column",
                                  "linear_ties", "log_ties"])
def test_a_short_or_non_monotone_series_is_drawn_whole(case):
    series, logx, logy = CASES[case]
    svg = svgplot.line_chart(series, logx=logx, logy=logy)
    drawn = re.findall(r'<polyline points="([^"]*)"', svg)
    assert [len(p.split()) for p in drawn] == [len(x) for _, x, _ in series]


@pytest.mark.parametrize("case", ["m4_stairs", "m4_logx", "m4_logy",
                                  "m4_dropped_samples"])
def test_a_long_monotone_series_is_decimated(case):
    series, logx, logy = CASES[case]
    svg = svgplot.line_chart(series, logx=logx, logy=logy)
    drawn = re.findall(r'<polyline points="([^"]*)"', svg)
    assert len(drawn[0].split()) <= 4 * 641 < len(series[0][1]) / 2


def _columns(points: str) -> dict:
    """Each pixel column's (x, y) pixel pairs, in order, of a polyline whose
    x pixels are exact quarter pixels."""
    cols = {}
    for pair in points.split():
        xp, yp = map(float, pair.split(","))
        cols.setdefault(math.floor(xp - 64.0), []).append((xp, yp))
    return cols


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), per_column=st.integers(5, 12),
       levels=st.sampled_from([2, 3, 7, 1000, 2 ** 40]))
def test_m4_keeps_each_columns_first_last_least_and_greatest_y(
        seed, per_column, levels):
    # x runs 0..640 on the 640 px axis, so a sample at c + 0.25, 0.5 or
    # 0.75 lands in pixel column c; few y levels make ties
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 2 * per_column, size=640)
    x = np.r_[0.0, np.repeat(np.arange(640.0), counts)
              + rng.choice([0.25, 0.5, 0.75], size=counts.sum()), 640.0]
    x[1:-1].sort()
    y = rng.integers(0, levels, size=len(x)) * 0.37
    assert len(x) > 4 * 641
    svg = svgplot.line_chart([("a", x, y)])
    drawn = _columns(re.search(r'<polyline points="([^"]*)"', svg)[1])
    full = _columns(polyline_points(x, y, svgplot._limits([(x, y)], False)))
    assert sorted(drawn) == sorted(full)
    for c, pts in full.items():
        kept = drawn[c]
        assert len(kept) <= 4
        assert (kept[0], kept[-1]) == (pts[0], pts[-1])
        assert min(p[1] for p in kept) == min(p[1] for p in pts)
        assert max(p[1] for p in kept) == max(p[1] for p in pts)
        it = iter(pts)
        assert all(p in it for p in kept)  # kept points keep their order


def test_the_pair_format_writes_each_coordinate_as_the_f_string_does():
    values = [-0.004999, -0.005, -0.0, 0.0, 0.005, 0.125, 2.675, 703.995,
              1e16, -1e-300, 5e-324]
    for a in values:
        for b in values:
            assert "%.2f,%.2f" % (a, b) == f"{a:.2f},{b:.2f}"


# run in a child capped at 1 GiB of address space and 10 s: a tick loop
# that never advances fails the test instead of hanging the suite
_ULP_AXIS = """
import math
from vlcasim import svgplot
near = [1.0, math.nextafter(1.0, 2.0)]
for series in [("a", [0.0, 1.0], near), ("a", near, [0.0, 1.0])]:
    print(svgplot.line_chart([series]).count("<polyline"))
"""


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_an_axis_a_few_ulps_wide_gets_its_end_ticks():
    src = str(Path(svgplot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _ULP_AXIS], env=env,
                          preexec_fn=_capped, capture_output=True, text=True,
                          timeout=10)
    assert (done.returncode, done.stdout) == (0, "1\n1\n"), done.stderr
    ticks = svgplot._nice_ticks(1.0, math.nextafter(1.0, 2.0))
    assert ticks == [1.0, math.nextafter(1.0, 2.0)]
