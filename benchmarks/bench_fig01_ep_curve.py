"""Fig. 1: the energy-proportionality curve of the 2016 exemplar.

Paper: a 2016 server with overall score 12212 whose EP is ~1.02 -- its
normalized power curve dips below the ideal line well before 100%
utilization.
"""


def test_fig01_ep_curve(record):
    result = record("fig1")
    # The curve crosses the ideal line: normalized power below
    # utilization somewhere in the mid-range.
    utilization = result.series["utilization"]
    power = result.series["normalized_power"]
    assert any(p < u for u, p in zip(utilization, power) if 0.0 < u < 1.0)
