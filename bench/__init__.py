"""The repo's round-cost benchmark (see ``bench/README.md``).

``python3 -m bench.run`` measures what one barrier round costs on the
four real paths (gc, single-loop net, sharded net, serve); the contract
with the driver is ``BENCHMARK.json`` at the repo root.  Everything here
imports ``repro`` from the checkout's own ``src/``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
