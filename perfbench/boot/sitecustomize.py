"""Tracing bootstrap for the traced ``repro serve`` daemon and its workers.

Python imports ``sitecustomize`` at start-up from the first ``sys.path`` entry
that has one.  The benchmark puts this directory first on ``PYTHONPATH`` only
for traced daemons, and sets ``PERFBENCH_TRACE_DIR``; the shard workers the
daemon spawns inherit both, so the same wrappers are installed in every
process of the service before any of its code runs.
"""

import os
import sys

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")
if _TRACE_DIR:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracer

    tracer.install_for_service(_TRACE_DIR)
