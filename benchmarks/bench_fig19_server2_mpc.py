"""Fig. 19: server #2 (Sugon I620-G10) EE vs. memory and frequency.

Paper: best memory per core 4 GB; efficiency drops 10.6% when memory
doubles to 8 GB/core.

The paper's numbers are rows of ``repro.core.pipeline.CLAIMS``, gated
in the tier-1 suite; this bench times the build.
"""


def test_fig19_server2(record):
    record("fig19")
