"""The repository's benchmark: workloads, layer tracing, comparison.

``python3 bench/run.py`` runs one workload once; ``python -m bench``
runs several, compares two checkouts and records goldens. See
``bench/README.md``.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
