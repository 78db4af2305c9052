"""Make the program under test and the benchmark modules importable."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)
