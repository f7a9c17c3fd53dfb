"""The repository's benchmark: four workloads, end-to-end and per-layer.

``python3 bench/run.py --workload NAME`` measures one workload in its
own process and prints one JSON result line; ``python -m bench`` runs
every workload that way, one after another, and prints a table;
``python -m bench compare A/ B/`` compares two sets of results.  See
``bench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, not an install."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"bench: no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The benchmark description (``BENCHMARK.json``) at the repo root."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))
