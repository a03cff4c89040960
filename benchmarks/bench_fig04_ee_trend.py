"""Fig. 4: EE and peak-EE statistics trend.

Paper: average, median, and maximum efficiency rise monotonically with
hardware year; only the 2014 minimum dips (one tower outlier at 1469).
"""


def test_fig04_ee_trend(record):
    result = record("fig4")
    years = result.series["years"]
    avg = result.series["avg_ee"]
    maximum = result.series["max_ee"]
    for a, b in zip(avg, avg[1:]):
        assert b > a * 0.97
    for a, b in zip(maximum, maximum[1:]):
        assert b >= a
    minimum = dict(zip(years, result.series["min_ee"]))
    assert minimum[2014] < minimum[2013]
    # Peak EE always at or above overall EE.
    for peak, overall in zip(result.series["avg_peak_ee"], avg):
        assert peak >= overall
