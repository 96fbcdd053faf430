"""The repo benchmark: five workloads, end-to-end metrics, a traced per-layer pass.

Entry point: ``python -m bench.run`` (see ``bench/README.md``).
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout: bench/ and src/ sit in it
