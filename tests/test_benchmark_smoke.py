"""The benchmark's rule workloads still run, correct and with no failed game.

`perfbench/run.py` calls the program by name (`play_game`, `replay`,
`decision_quality(..., parser=)`, `TurnMetrics.measure` and more); a broken
call fails the benchmark, not the rest of the suite. Each workload runs here
for 0.2 s on a copy of `perfbench/` whose `src` links to this checkout, so its
outputs land under the test's temporary directory.

`llm-triad` is left out: its 100-operation floor at the mock endpoint's
20 ms reply delay takes about 18 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize("workload", ["sweep40", "synth4k", "analyze"])
def test_rule_workload_runs_correct(bench_root, workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "0.2"]
    proc = subprocess.run(cmd, cwd=bench_root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
