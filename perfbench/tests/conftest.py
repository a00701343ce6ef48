"""Make ``perfbench`` and the program's ``repro`` importable.

Run from the repository root:  python3 -m pytest perfbench/tests
(tier-1's ``testpaths`` do not include this directory).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
