"""``waveflow train`` in a fresh process, timed around the CLI call.

Usage: python3 perfbench/child_train.py <train args...>

Prints one JSON line, ``{"exit": <code>, "seconds": <wall time>}``.  The
time excludes interpreter start-up and imports, so it measures the same
span as the in-process ``waveflow train`` calls of the train workloads.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from waveflow.cli import main  # noqa: E402

if __name__ == "__main__":
    start = time.perf_counter()
    code = main(sys.argv[1:])
    print(json.dumps({"exit": code, "seconds": time.perf_counter() - start}))
