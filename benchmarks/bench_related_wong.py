"""Section VI: the rebuttal of Wong ISCA'16's ~60% claim.

Paper: 69.25% of all published results peak at 100% utilization and
only ~1.88% peak at 60%, against Wong's "typically ~60%" claim.

The paper's numbers are rows of ``repro.core.pipeline.CLAIMS``, gated
in the tier-1 suite; this bench times the build.
"""


def test_related_wong(record):
    record("wong")
