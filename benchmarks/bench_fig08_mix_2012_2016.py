"""Fig. 8: microarchitecture mix per year, 2012-2016.

Paper: Sandy Bridge generation dominates 2012; Ivy Bridge and Haswell
carry 2013-2014; Haswell/Broadwell/Skylake carry 2015-2016.
"""


def test_fig08_mix(record):
    result = record("fig8")
    mix = result.series
    assert set(mix) == {2012, 2013, 2014, 2015, 2016}
    assert "Netburst" not in mix[2012]
