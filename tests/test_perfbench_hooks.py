"""The benchmark's span hooks still find every method and function they wrap.

``perfbench.spans.install`` wraps engine methods through the defining
class's ``__dict__`` and module functions by name, so a renamed,
deleted or merely inherited method breaks traced benchmark runs.  This
runs the installer in a fresh interpreter (it patches modules in
place) and requires a clean exit.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """\
import sys
sys.path[:0] = [{root!r}, {src!r}]
from perfbench.spans import Recorder, install
install(Recorder())
"""


def test_span_install_finds_every_hook():
    script = INSTALL.format(root=str(ROOT), src=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
