"""Table I: memory-per-core statistics of the published servers.

Paper: {0.67: 15, 1: 153, 1.33: 32, 1.5: 68, 1.78: 13, 2: 123, 4: 26},
covering 430 of the 477 servers.
"""


def test_table1(record):
    result = record("table1")
    series = result.series
    assert set(series) == {"0.67", "1", "1.33", "1.5", "1.78", "2", "4"}
    assert sum(series.values()) == 430
