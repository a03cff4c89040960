"""Fig. 12: relative-EE curves of the selected servers.

Paper: servers with EP > 1 reach 0.8x of their full-load efficiency
before 30% utilization and 1.0x before 40%.
"""


def test_fig12_selected_ee(record):
    result = record("fig12")
    crossings = result.series["crossings"]
    high_ep = {k: v for k, v in crossings.items() if float(k.split(":")[1]) > 1.0}
    assert len(high_ep) == 2  # the EP 1.02 and 1.05 exemplars
    # Lower-EP curves cross later (or never).
    low_ep = {k: v for k, v in crossings.items() if float(k.split(":")[1]) < 0.5}
    for key, (c08, _c10) in low_ep.items():
        assert not (c08 < 0.30), key
