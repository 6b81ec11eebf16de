"""Make ``perfbench`` (whose circuit builders some tests use) importable when
pytest runs without the checkout root on ``sys.path``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
