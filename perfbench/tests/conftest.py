"""Make the benchmark package importable for its own tests."""

import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1]
for path in (PERFBENCH, PERFBENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
