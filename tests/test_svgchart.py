"""SVG line charts: tick positions and axis ranges at any magnitude."""

import re

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


@pytest.mark.parametrize("x", [0.0, 0.3, 1.6e299, -1.6e299])
def test_one_point_chart_has_ticks_on_both_axes(tmp_path, x):
    # At 1.6e299 a padding of 0.5 vanishes, and the tick step was log10(0).
    path = tmp_path / "one.svg"
    write_line_chart(str(path), [("y", [x], [2.0])], title="t", xlabel="x", ylabel="y")
    text = path.read_text()
    assert len(re.findall(r'text-anchor="middle">[^<]*</text>', text)) >= 3  # x ticks, then title and x label
    assert "nan" not in text and "inf" not in text
