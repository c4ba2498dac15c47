"""Behaviour lock for the LLM path: a digest over LLM games on a mock endpoint.

`perfbench/mock_llm.py` plays seeker, oracle and pruner from its own copy of
the city table, with no ids or timestamps in its replies. With audit on, the
transcripts carry every request and reply, so this digest pins prompts,
wire format, reply parsing and the engine's LLM branch together.

Refactors must keep the digest byte-identical. A change to it must be
deliberate, explained in CHANGES.md, and versioned.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from infoseek.agents import Observability
from infoseek.dataset import bundled_dataset_path, load_dataset
from infoseek.engine import GameConfig, play_game, transcript_to_jsonl
from infoseek.experiment import AgentSpec, ExperimentConfig, build_agents
from infoseek.llm import EndpointConfig
from infoseek.taxonomy import Level, NodeId, build_graph

MOCK = Path(__file__).resolve().parents[1] / "perfbench" / "mock_llm.py"

LLM_SWEEP_DIGEST = "9e5f4c054a0bdec54e99026e54004698b4f34ad11eb78eccbe4bc3899c222187"

# Every fifth city of the bundled 40.
TARGETS = tuple(NodeId(Level.CITY, n) for n in range(1, 41, 5))


@pytest.fixture(scope="module")
def mock_port():
    mock = subprocess.Popen(
        [sys.executable, str(MOCK), str(bundled_dataset_path()), "--delay-ms", "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        yield int(mock.stdout.readline())
    finally:
        mock.stdin.close()  # the mock serves until its stdin closes
        try:
            mock.wait(timeout=10)
        except subprocess.TimeoutExpired:
            mock.kill()
            mock.wait()
        mock.stdout.close()


def configs(port: int) -> list[ExperimentConfig]:
    def llm(think: bool) -> AgentSpec:
        return AgentSpec("llm", EndpointConfig(
            base_url=f"http://127.0.0.1:{port}/v1",
            model_name="mock",
            timeout=30.0,
            reasoning_suffix="\n/think" if think else None,
        ))

    dataset_path = str(bundled_dataset_path())
    triad = [
        ExperimentConfig(
            dataset_path=dataset_path,
            observability=observability,
            seeker=llm(True),
            oracle=llm(False),
            pruner=llm(False),
            reasoning_enabled=True,
            audit=True,
        )
        for observability in (Observability.FULL, Observability.PARTIAL)
    ]
    # The engine reads the LLM seeker's question text into a predicate, so
    # the rule oracle and rule pruner can answer and prune it.
    llm_seeker_rule_judges = ExperimentConfig(
        dataset_path=dataset_path, seeker=llm(False), audit=True
    )
    return [*triad, llm_seeker_rule_judges]


def test_llm_transcripts_match_pinned_digest(mock_port):
    records, _ = load_dataset(bundled_dataset_path())
    graph = build_graph(records)
    digest = hashlib.sha256()
    for cfg in configs(mock_port):
        seeker, oracle, pruner = build_agents(cfg)
        for target in TARGETS:
            game = GameConfig(target=target, observability=cfg.observability, audit=cfg.audit)
            transcript = play_game(seeker, oracle, pruner, graph.fresh_copy(), game)
            digest.update(transcript_to_jsonl(transcript).encode("utf-8"))
    assert digest.hexdigest() == LLM_SWEEP_DIGEST
