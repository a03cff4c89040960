"""Fig. 17: corpus EP/EE by memory-per-core configuration.

Paper: the best ratio is 1.5 GB/core for proportionality and
1.78 GB/core for efficiency; 0.67 GB/core is the worst of the
common configurations.
"""


def test_fig17_mpc(record):
    result = record("fig17")
    buckets = result.series["buckets"]
    assert buckets["0.67"]["avg_ep"] == min(b["avg_ep"] for b in buckets.values())
