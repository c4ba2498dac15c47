"""Behaviour lock: a digest over every greedy and random sweep transcript,
and one over the config.json and report.json that a run writes.

Refactors must keep these digests byte-identical. A change to one must be
deliberate, explained in CHANGES.md, and versioned (bump the transcript
schema or the config schema when the recorded games change meaning).
"""

import hashlib
import shutil

from infoseek.agents import Observability
from infoseek.dataset import bundled_dataset_path
from infoseek.engine import transcript_to_jsonl
from infoseek.experiment import AgentSpec, ExperimentConfig, run_experiment

SWEEP_DIGEST = "90cffa361cac556aba58d97962d16aea90944d346937b3e8d82a39fba14caedf"
OUTPUT_DIGEST = "48a6eceed45cc0aa52857c686074d0843b8bfa5b5c35aba78e1805a3942bb10a"

SWEEPS = (
    ("greedy", Observability.FULL),
    ("greedy", Observability.PARTIAL),
    ("random", Observability.FULL),
    ("random", Observability.PARTIAL),
)


def test_sweep_transcripts_match_pinned_digest():
    digest = hashlib.sha256()
    for seeker, observability in SWEEPS:
        cfg = ExperimentConfig(
            dataset_path=str(bundled_dataset_path()),
            runs_per_target=3,
            observability=observability,
            seeker=AgentSpec(seeker),
            base_seed=0,
        )
        run_experiment(
            cfg, progress=lambda t: digest.update(transcript_to_jsonl(t).encode("utf-8"))
        )
    assert digest.hexdigest() == SWEEP_DIGEST


def test_config_and_report_files_match_pinned_digest(tmp_path, monkeypatch):
    # Relative paths keep the recorded dataset_path, source and per_game
    # entries free of the checkout's location.
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(bundled_dataset_path(), "cities.csv")
    run_experiment(
        ExperimentConfig(dataset_path="cities.csv", runs_per_target=1, output_dir="out")
    )
    digest = hashlib.sha256()
    for name in ("config.json", "report.json"):
        digest.update((tmp_path / "out" / name).read_bytes())
    assert digest.hexdigest() == OUTPUT_DIGEST
