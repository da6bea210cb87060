"""Make ``perfbench`` and the system under test importable for
``python -m pytest perfbench`` from the repository root."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
