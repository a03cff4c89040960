"""Fig. 14: single-node EP/EE vs. chip count.

Paper: 2-chip servers lead every statistic except the median EP (1-chip
wins, 0.67 vs 0.66); both metrics fall monotonically at 4 and 8 chips.
"""


def test_fig14_chips(record):
    result = record("fig14")
    stats = result.series
    assert sorted(stats) == [1, 2, 4, 8]
    assert stats[2]["avg_ep"] == max(s["avg_ep"] for s in stats.values())
    assert stats[1]["median_ep"] > stats[2]["median_ep"]  # the exception
    assert stats[2]["avg_ep"] > stats[4]["avg_ep"] > stats[8]["avg_ep"]
    assert stats[2]["avg_ee"] > stats[4]["avg_ee"] > stats[8]["avg_ee"]
