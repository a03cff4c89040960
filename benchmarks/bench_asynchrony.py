"""Section IV.B: EP/EE top-decile asynchrony.

Paper: 91.7% of the top-10% EP servers are 2012 hardware (vs. a 27.4%
population share); only 16.7% of the top-10% EE servers are; every
2015-2016 server makes the top-10% EE list; the EP and EE top deciles
overlap by only 14.6%.

The paper's numbers are rows of ``repro.core.pipeline.CLAIMS``, gated
in the tier-1 suite; this bench times the build and checks the
recent cohort's place in the top EE decile.
"""


def test_asynchrony(record):
    result = record("asynchrony")
    report = result.series["report"]
    assert report.all_recent_in_top_ee
