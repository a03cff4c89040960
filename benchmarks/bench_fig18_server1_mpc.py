"""Fig. 18: server #1 (Sugon A620r-G) EE vs. memory and frequency.

Paper: best memory per core 1.75 GB; efficiency falls at every lower
pinned frequency; ondemand tracks the top frequency.
"""


def _frequency_series(result, mpc):
    cells = result.series["cells"]
    return {
        key[1]: value["ee"]
        for key, value in cells.items()
        if abs(key[0] - mpc) < 1e-9 and not isinstance(key[1], str)
    }


def test_fig18_server1(record):
    result = record("fig18")
    series = _frequency_series(result, 1.75)
    frequencies = sorted(series)
    values = [series[f] for f in frequencies]
    assert values == sorted(values)
