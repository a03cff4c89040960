"""Fig. 10: the eleven selected EP curves.

Paper: the selection spans EP 0.18 .. 1.05; curves that intersect the
ideal line do so earlier the higher their EP; a 2014 1U server crosses
twice; the 2011 and 2016 EP=0.75 pair differ in shape (one crosses,
one does not).
"""


def test_fig10_selected_ep(record):
    result = record("fig10")
    curves = result.series["curves"]
    assert len(curves) == 11
    ordering = result.series["intersection_ordering"]
    assert len(ordering) >= 4
    from repro.metrics.correlation import spearman

    assert spearman([e for e, _ in ordering], [x for _, x in ordering]) < -0.6
