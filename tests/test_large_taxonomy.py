"""Rule games on a 3,840-city taxonomy, checked against the benchmark's reference.

The bundled data has 40 cities, so its masks fit in two 30-bit digits of a
Python int; these games use masks of 3,840 bits. The taxonomy comes from
perfbench/gen.py and each game is checked by perfbench/reference.py, which
reads the CSV and the predicates without using infoseek's own code.
"""

import importlib
from pathlib import Path

import pytest

from infoseek.agents import GreedyHalvingSeeker, Observability, RandomSeeker, RuleOracle, RulePruner
from infoseek.dataset import load_dataset
from infoseek.engine import GameConfig, play_game, replay
from infoseek.taxonomy import Level, NodeId, build_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
        reference = importlib.import_module("reference")
    path = tmp_path_factory.mktemp("synth") / "synth4k.csv"
    assert gen.write_taxonomy(path, 0, (4, 4, 4, 4, 15)) == 3840
    records, _ = load_dataset(path)
    return reference, reference.load_table(path), build_graph(records)


@pytest.mark.parametrize("kind", ["greedy", "random"])
def test_rule_game_on_3840_cities_matches_the_reference(synth, kind):
    reference, table, graph = synth
    seeker = GreedyHalvingSeeker() if kind == "greedy" else RandomSeeker()
    cfg = GameConfig(target=NodeId(Level.CITY, 2718), observability=Observability.PARTIAL,
                     rng_seed=11)
    transcript = play_game(seeker, RuleOracle(), RulePruner(), graph.fresh_copy(), cfg)
    turns = [
        (reference.parse_canonical(t.predicate.canonical()), t.oracle_answer,
         [i.numeric_id for i in t.pruned_ids], t.metrics.ig)
        for t in transcript.turns
    ]
    # A greedy game must win within ceil(log2 N) + 1 turns; a random one may
    # run out of turns, and every turn it played is still checked.
    assert reference.check_rule_game(
        table, cfg.target.numeric_id, turns, transcript.outcome, greedy=kind == "greedy"
    ) is None
    assert replay(transcript, graph) == transcript.game_metrics
