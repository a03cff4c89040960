"""Fig. 15: 2-chip single-node servers vs. all servers (same year).

Paper: +2.94% average EP, +4.13% average EE, +1.18% median EP, +6.26%
median EE.

The paper's numbers are rows of ``repro.core.pipeline.CLAIMS``, gated
in the tier-1 suite; this bench times the build.
"""


def test_fig15_twochip(record):
    record("fig15")
