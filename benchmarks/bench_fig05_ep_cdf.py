"""Fig. 5: the EP CDF.

Paper: 25.21% of servers in [0.6, 0.7), 17.44% in [0.8, 0.9), 99.58%
below EP 1.0.
"""


def test_fig05_ep_cdf(record):
    result = record("fig5")
    xs, F = result.series["x"], result.series["F"]
    assert F == sorted(F) and xs == sorted(xs)
