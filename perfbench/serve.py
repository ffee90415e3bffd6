"""Serving-process entry point used by the benchmark (see gbench.server)."""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

if __name__ == "__main__":
    from gbench.server import main

    sys.exit(main())
