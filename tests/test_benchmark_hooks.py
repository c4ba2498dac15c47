"""The benchmark's tracer still finds every infoseek name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# perfbench/tracer.py wraps functions and methods by name; a renamed one makes
# install raise. Its `requests` import is stubbed, as infoseek needs no requests.
PROBE = """
import sys, types
requests = types.ModuleType("requests")
requests.post = lambda *args, **kwargs: None
sys.modules["requests"] = requests
from tracer import Tracer, install
install(Tracer())
"""


def test_tracer_installs_on_every_traced_name():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
