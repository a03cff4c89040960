"""Eq. 2 and Section III.D: the idle-power regression.

Paper: EP = 1.2969 * exp(k * idle) with R^2 = 0.892 (k ~= -2.06 from
the paper's own idle=5% => EP=1.17 example); corr(EP, idle%) = -0.92.

The paper's numbers are rows of ``repro.core.pipeline.CLAIMS``, gated
in the tier-1 suite; this bench times the build.
"""


def test_eq2_idle_regression(record):
    record("eq2")
