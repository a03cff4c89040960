"""Extension: the paper's forward projections, operationalized.

Section III.D's headroom math (EP 1.17 at 5% idle, ceiling ~1.297) and
Section IV.A's drift prediction (peak spot toward 50%/40% utilization)
as computed artifacts.
"""


def test_ext_forecast(record):
    result = record("forecast")
    drift = result.series["drift"]
    assert drift.slope_per_year < 0.0
    assert 2017 <= drift.year_reaching(0.5) <= 2035
