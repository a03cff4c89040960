"""Extension (Sections I / VI): prior-work windows re-examined.

The paper's intro: "with newer results published, the derived models
and conclusions from previous work pose greater errors" -- citing the
EP-score correlation falling from 0.83 (Hsu & Poole's 2014 window) to
0.741 (all 477 valid results).

The paper's numbers are rows of ``repro.core.pipeline.CLAIMS``, gated
in the tier-1 suite; this bench times the build of the drift.
"""

from repro.analysis.prior_subsets import ep_score_correlation_drift


def test_ext_prior_subsets(corpus, benchmark):
    benchmark(ep_score_correlation_drift, corpus)
