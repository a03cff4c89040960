"""The traced daemon: ``repro serve`` with the benchmark's spans installed.

Run as ``python -m perfbench.traced_serve --spans-dir DIR --workers N``
from a directory where both the repository root and its ``src/`` are
importable.  It wraps the layers' public calls (:mod:`perfbench.spans`)
and then calls :func:`repro.serve.daemon.run_daemon` exactly as
``python -m repro serve --port 0`` would, so the engine workers fork
with the wrappers in place.  Spans are written per process when the
daemon drains (SIGTERM).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from perfbench import spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-dir", required=True, type=Path)
    parser.add_argument("--workers", required=True, type=int)
    args = parser.parse_args()
    recorder = spans.Recorder()
    spans.install_daemon(recorder, args.spans_dir)

    from repro.serve.daemon import run_daemon

    try:
        return run_daemon(port=0, out=sys.stdout, workers=args.workers)
    finally:
        recorder.dump(args.spans_dir)


if __name__ == "__main__":
    sys.exit(main())
