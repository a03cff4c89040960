"""Fig. 7: average EP per microarchitecture codename.

Paper legend: Sandy Bridge EN 0.90 (best), Broadwell 0.87, Haswell
0.81, Ivy Bridge 0.71 (a regression from Sandy Bridge 0.75 despite the
finer node), Netburst 0.29 (worst).

Section III.A credits both EP step-jumps (2008->2009, 2011->2012) to
Intel "tock" transitions: along the 2-socket server lineage, the two
named tocks are the largest single gains, and the mean tock gain
exceeds the mean tick gain.
"""

from repro.power.microarch import CATALOG, Codename

#: The Intel 2-socket server lineage, in succession order.
SERVER_LINEAGE = (
    Codename.CORE,
    Codename.PENRYN,
    Codename.NEHALEM_EP,
    Codename.WESTMERE_EP,
    Codename.SANDY_BRIDGE_EP,
    Codename.IVY_BRIDGE_EP,
    Codename.HASWELL,
    Codename.BROADWELL,
    Codename.SKYLAKE,
)


def test_fig07_codename_ep(record):
    result = record("fig7")
    codenames = result.series["codenames"]
    assert codenames["Ivy Bridge"]["avg_ep"] < codenames["Sandy Bridge"]["avg_ep"]
    stagnation = result.series["stagnation"]
    assert stagnation["observed_2013_2014"] < stagnation["counterfactual_2012_mix"]

    steps = {
        (old, new): codenames[new.value]["avg_ep"] - codenames[old.value]["avg_ep"]
        for old, new in zip(SERVER_LINEAGE, SERVER_LINEAGE[1:])
    }
    largest = sorted(steps, key=steps.get, reverse=True)[:2]
    assert set(largest) == {
        (Codename.PENRYN, Codename.NEHALEM_EP),
        (Codename.WESTMERE_EP, Codename.SANDY_BRIDGE_EP),
    }
    tocks = [gain for (_, new), gain in steps.items() if CATALOG[new].is_tock]
    ticks = [gain for (_, new), gain in steps.items() if not CATALOG[new].is_tock]
    assert sum(tocks) / len(tocks) > sum(ticks) / len(ticks)
