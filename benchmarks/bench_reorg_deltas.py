"""Section I: the hardware-availability-year reorganization.

Paper: 15.5% of results have a published year different from hardware
availability; re-indexing moves per-year EP statistics by up to ~13%
and EE statistics by up to ~21%.
"""


def test_reorg_deltas(record):
    result = record("reorg")
    series = result.series
    for key in ("ep_avg_range", "ep_median_range", "score_avg_range",
                "score_median_range"):
        low, high = series[key]
        assert low < 0.0 < high or high > 0.01, key
        assert -0.25 < low and high < 0.25, key
    # EE deltas skew positive (late publication flatters old hardware).
    assert series["score_avg_range"][1] > abs(series["score_avg_range"][0])
