"""Fig. 9: the pencil-head chart.

Paper: all 477 EP curves lie between the curve of the least
proportional server (EP 0.18, the upper edge) and the most
proportional one (EP 1.05, the lower edge).
"""


def test_fig09_pencil_head(record, corpus):
    result = record("fig9")
    upper = result.series["upper"]
    lower = result.series["lower"]
    for server in corpus:
        loads, powers = server.curve()
        peak = powers[-1]
        for p, lo, hi in zip([x / peak for x in powers], lower, upper):
            assert lo - 1e-9 <= p <= hi + 1e-9
