"""Fig. 20: server #4 (ThinkServer RD450) EE vs. memory and frequency.

Paper: best memory per core 2.67 GB; efficiency falls 4.6% at
8 GB/core and 11.1% at 16 GB/core.
"""


def test_fig20_server4(record):
    result = record("fig20")
    cells = result.series["cells"]
    at_top = {k[0]: v["ee"] for k, v in cells.items() if k[1] == 2.4}
    drop_8 = at_top[8.0] / at_top[2.67] - 1.0
    drop_16 = at_top[16.0] / at_top[2.67] - 1.0
    assert drop_16 < drop_8
