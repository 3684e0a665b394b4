"""``python -m repro`` with the benchmark's layer wrappers installed.

The traced ``serve_mixed`` run starts its daemon as
``python -m perfbench.serve_child serve --store-dir D --port 0``; the
per-layer counts then appear on the daemon's ``/metrics`` page.
"""

import sys

from perfbench.trace import Tracer
from repro import cli

if __name__ == "__main__":
    Tracer("serve_mixed", record_spans=False).install()
    cli.main(sys.argv[1:])
