"""Behaviour lock: a digest over every greedy and random sweep transcript.

Refactors must keep this digest byte-identical. A change to it must be
deliberate, explained in CHANGES.md, and versioned (bump the transcript
schema or the config schema when the recorded games change meaning).
"""

import hashlib

from infoseek.agents import Observability
from infoseek.dataset import bundled_dataset_path
from infoseek.engine import transcript_to_jsonl
from infoseek.experiment import AgentSpec, ExperimentConfig, run_experiment

SWEEP_DIGEST = "90cffa361cac556aba58d97962d16aea90944d346937b3e8d82a39fba14caedf"

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
        report = run_experiment(cfg)
        for transcript in report.transcripts:
            digest.update(transcript_to_jsonl(transcript).encode("utf-8"))
    assert digest.hexdigest() == SWEEP_DIGEST
