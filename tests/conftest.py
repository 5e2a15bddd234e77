"""Let command-line tests that start a fresh interpreter import ``src/`` too.

``pythonpath = ["src"]`` in pyproject.toml covers this process only; child
processes read the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
