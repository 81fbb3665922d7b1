"""SVG line charts: tick positions and axis ranges at any magnitude."""

import math
import re
import sys
import xml.etree.ElementTree as ET

import pytest

from cldprop.svgchart import _nice_ticks, _padded, write_line_chart


def test_ticks_at_a_1_2_5_step():
    assert [round(t, 12) for t in _nice_ticks(-0.3, 0.7)] == [-0.2, 0.0, 0.2, 0.4, 0.6]
    assert _nice_ticks(0.0, 5.0) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_ticks_end_where_floats_are_sparser_than_the_step():
    # Near 1e17 floats lie 16 apart, over the step of 5: a running sum t += step never moved.
    ticks = _nice_ticks(1e17, 1e17 + 16)
    assert 0 < len(ticks) <= 7 and all(1e17 <= t <= 1e17 + 16 for t in ticks)


def test_zero_span_is_padded_by_half_a_unit_or_a_tenth_of_its_magnitude():
    assert _padded(0.3, 0.3) == (-0.2, 0.8)
    assert _padded(-4.0, -4.0) == (-4.5, -3.5)
    assert _padded(1.6e299, 1.6e299) == (1.6e299 - 1.6e298, 1.6e299 + 1.6e298)
    assert _padded(1.0, 2.0) == (1.0, 2.0)
    assert _padded(0.0, 5e-324) == (-0.5, 0.5)  # a span below the smallest normal float had no tick step


_BIG = sys.float_info.max


def test_range_is_held_to_the_float_range():
    assert _padded(1.7e308, 1.7e308) == (1.7e308 - 0.1 * 1.7e308, _BIG)
    assert _padded(-_BIG, _BIG, margin=0.04) == (-_BIG, _BIG)
    assert _padded(-1.0, 1.0, margin=0.25) == (-1.5, 1.5)
    ticks = _nice_ticks(-_BIG, _BIG)
    assert ticks and all(math.isfinite(t) and -_BIG <= t <= _BIG for t in ticks)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.6e299, -1.6e299, 1.7e308, -1.7e308])
def test_one_point_chart_has_ticks_on_both_axes(tmp_path, x):
    # At 1.6e299 a padding of 0.5 vanishes, and the tick step was log10(0). Padded by a tenth, 1.7e308 (the
    # Strouhal number of a sweep at a freestream of 4.7e-310 m/s) passed the largest float.
    path = tmp_path / "one.svg"
    write_line_chart(str(path), [("y", [x], [2.0])], title="t", xlabel="x", ylabel="y")
    text = path.read_text()
    assert len(re.findall(r'text-anchor="middle">[^<]*</text>', text)) >= 3  # x ticks, then title and x label
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([0.0, 1.0], [-_BIG, _BIG]),
        ([-_BIG, _BIG], [_BIG, _BIG]),
        ([-1e308, 1e-300, 1e308], [5e-324, 0.0, -1e-320]),
    ],
)
def test_chart_of_values_near_the_float_range_overflows_nothing(tmp_path, xs, ys):
    path = tmp_path / "huge.svg"
    write_line_chart(str(path), [("y", xs, ys)], title="t", xlabel="x", ylabel="y")
    text = path.read_text()
    assert not re.search(r"\b(inf|nan)\b", text)
    (line,) = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}polyline")
    points = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
    assert len(points) == len(xs) and all(0 <= x <= 640 and 0 <= y <= 420 for x, y in points)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_value_that_is_not_finite_rejected(tmp_path, bad):
    with pytest.raises(ValueError, match="not finite"):
        write_line_chart(str(tmp_path / "bad.svg"), [("y", [0.0, 1.0], [0.0, bad])], title="t", xlabel="x", ylabel="y")
    with pytest.raises(ValueError, match="not finite"):
        write_line_chart(str(tmp_path / "bad.svg"), [("y", [bad], [0.0])], title="t", xlabel="x", ylabel="y")


@pytest.mark.parametrize("series", [[], [("y", [], [])]], ids=["no-series", "no-points"])
def test_empty_series_rejected(tmp_path, series):
    with pytest.raises(ValueError, match="^cannot chart empty series$"):
        write_line_chart(str(tmp_path / "empty.svg"), series, title="t", xlabel="x", ylabel="y")
