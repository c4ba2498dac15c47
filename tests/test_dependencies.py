"""infoseek runs on the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import infoseek.cli
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_imports_only_the_standard_library():
    # -S keeps site-packages off the path, so a third-party import fails outright.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert "infoseek" in loaded
    assert loaded - {"infoseek"} <= set(sys.stdlib_module_names)
