"""Fig. 6: server counts by CPU microarchitecture family.

Paper: Nehalem (152) and Sandy Bridge (137) dominate; Netburst and
Skylake are niche (3 each).
"""


def test_fig06_microarch(record):
    result = record("fig6")
    series = result.series
    assert sum(entry["count"] for entry in series.values()) == 477
