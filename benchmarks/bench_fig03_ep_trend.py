"""Fig. 3: EP statistics trend per hardware availability year.

Paper: average EP 0.30 (2005) -> 0.82 (2012) -> ~0.84 (2016); two step
jumps, +48.65% into 2009 and +24.24% into 2012; minimum 0.18 in 2008.

The paper's numbers are rows of ``repro.core.pipeline.CLAIMS``, gated
in the tier-1 suite; this bench times the build.
"""


def test_fig03_ep_trend(record):
    record("fig3")
