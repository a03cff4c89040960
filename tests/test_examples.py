"""The examples must keep running: execute each one end to end.

Each example is run in-process (``runpy``) with stdout captured, and a
couple of landmark strings are checked so a silently broken example
cannot pass.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

#: (script, landmark strings its output must contain)
CASES = [
    ("quickstart.py", ["corpus: 477 published SPECpower results", "eq2"]),
    ("fleet_analysis.py", ["Top codenames by average EP", "CSV export"]),
    ("hardware_tuning.py", ["best memory per core", "ThinkServer RD450"]),
    ("datacenter_placement.py", ["pack-to-full vs. EP-aware", "EP-aware places"]),
    ("ssj_run.py", ["governor: ondemand", "overall score"]),
    ("workload_sensitivity.py", ["EP spread across workloads"]),
    ("capacity_planning.py", ["the peak-EE pick costs"]),
    ("reorganization_story.py", ["re-indexing moves yearly average"]),
]


@pytest.mark.parametrize("script,landmarks", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, landmarks, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    output = buffer.getvalue()
    assert output.strip(), script
    for landmark in landmarks:
        assert landmark in output, (script, landmark)
