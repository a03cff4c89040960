"""Fig. 16: chronological shifting of the peak-efficiency spot.

Paper: all servers peak at 100% before 2010; over 2004-2012 75.71% peak
at 100%; over 2013-2016 only 23.21% do while 35.71% peak at 80% and
26.79% at 70%; in 2016 the split is 3/10/5 at 100/80/70%.
"""


def test_fig16_peak_shift(record):
    result = record("fig16")
    trend = result.series["trend"]
    for year in range(2004, 2010):
        assert trend[year] == {1.0: 1.0}, year
