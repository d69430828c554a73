"""Start the e2e span tracer in every Python process of a traced run.

``run.py --trace 1`` puts this directory on ``PYTHONPATH`` and names
the span directory in ``E2E_TRACE_DIR``, so the servers and every
build child load the tracer before their own code runs.
"""

import os


def _install():
    directory = os.environ.get("E2E_TRACE_DIR")
    if directory:
        import e2e_trace

        e2e_trace.install(directory)


_install()
