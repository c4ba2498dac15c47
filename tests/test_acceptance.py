"""Top-level acceptance checks, one test per numbered criterion.

Each criterion records one `[ACCEPTANCE n] PASS/FAIL` line; the
terminal-summary hook in conftest prints the scoreboard at the end of
any run that touched this file.
"""

import json
import math
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from helpers import (
    ACCEPTANCE_RESULTS,
    ASIA_Q,
    EUROPE_Q,
    NON_ASIA,
    TOKYO,
    manual_transcript,
)

from infoseek.agents import (
    GreedyHalvingSeeker,
    OracleOutput,
    RandomSeeker,
    RuleOracle,
    RulePruner,
    SeekerOutput,
)
from infoseek.cli import main as cli_main
from infoseek.dataset import CityRecord, bundled_dataset_path, top_n_by_population
from infoseek.engine import GameConfig, play_game, replay
from infoseek.experiment import AgentSpec, ExperimentConfig, run_experiment
from infoseek.llm import (
    EndpointConfig,
    LLMOracle,
    LLMPruner,
    LLMSeeker,
    MalformedResponseError,
    NonCityIdInResponseError,
    parse_oracle_json,
    parse_pruner_json,
)
from infoseek.metrics import (
    GameMetrics,
    MeanSE,
    TurnMetrics,
    aggregate,
    entropy,
    information_gain,
)
from infoseek.questions import AttributeIn
from infoseek.taxonomy import Level, NodeId
from infoseek.trace_analysis import decision_quality, iter_turn_decisions

CSV = str(bundled_dataset_path())
ENTROPY_40 = 5.321928094887363
GREEDY_TURN_BOUND = 7  # exhaustive sweep over all 40 targets tops out here


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((number, "FAIL", label))
        print(f"[ACCEPTANCE {number}] FAIL — {label}")
        raise
    ACCEPTANCE_RESULTS.append((number, "PASS", label))
    print(f"[ACCEPTANCE {number}] PASS — {label}")


@pytest.fixture(scope="module")
def greedy_sweep():
    """120 greedy rule-loop games (40 targets x 3 runs), their transcripts, timed."""
    cfg = ExperimentConfig(
        dataset_path=CSV,
        runs_per_target=3,
        seeker=AgentSpec("greedy"),
        label="greedy-fo",
    )
    transcripts = []
    start = time.monotonic()
    report = run_experiment(cfg, progress=transcripts.append)
    return report, transcripts, time.monotonic() - start


@pytest.fixture(scope="module")
def random_sweep():
    """120 random-seeker games matched to the greedy sweep."""
    cfg = ExperimentConfig(
        dataset_path=CSV,
        runs_per_target=3,
        seeker=AgentSpec("random"),
        label="random-fo",
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def thousand_random_games(base_graph):
    """1,000 random-seeker games with varied seeds and targets, timed."""
    cities = sorted(base_graph.city_leaves, key=lambda n: n.numeric_id)
    seeker, oracle, pruner = RandomSeeker(), RuleOracle(), RulePruner()
    start = time.monotonic()
    transcripts = [
        play_game(
            seeker,
            oracle,
            pruner,
            base_graph.fresh_copy(),
            GameConfig(target=cities[i % len(cities)], rng_seed=i),
        )
        for i in range(1000)
    ]
    return transcripts, time.monotonic() - start


def test_criterion_01_entropy_exactness():
    with criterion(1, "entropy exactness and rendering"):
        assert abs(entropy(40) - ENTROPY_40) < 1e-12
        assert entropy(40) == math.log2(40)
        assert information_gain(40, 1) == entropy(40)
        assert str(MeanSE(entropy(40), 0.0)) == "5.32 ± 0.00"


def test_criterion_02_closed_loop_rule_baseline(greedy_sweep):
    with criterion(2, "greedy rule loop: 120/120 wins, full IG, bounded turns"):
        report, transcripts, elapsed = greedy_sweep
        assert elapsed < 10.0
        assert report.aggregate.n_games == 120
        assert report.aggregate.win_rate.mean == 1.0
        assert report.aggregate.win_rate.se == 0.0
        assert len(transcripts) == 120
        for transcript in transcripts:
            assert transcript.outcome == "win"
            assert abs(transcript.game_metrics.total_ig - ENTROPY_40) < 1e-9
            assert transcript.game_metrics.turns <= GREEDY_TURN_BOUND


def test_criterion_03_telescoping_invariant(thousand_random_games):
    with criterion(3, "per-turn IG telescopes over 1,000 random games"):
        transcripts, elapsed = thousand_random_games
        assert elapsed < 30.0
        assert len(transcripts) == 1000
        for transcript in transcripts:
            total = sum(turn.metrics.ig for turn in transcript.turns)
            n_final = 40 - sum(len(turn.pruned_ids) for turn in transcript.turns)
            assert abs(total - (entropy(40) - entropy(n_final))) < 1e-9
            assert abs(transcript.game_metrics.total_ig - total) < 1e-9


def test_criterion_04_pruner_soundness(base_graph):
    with criterion(4, "rule pruner never drops the target, always partitions"):
        start = time.monotonic()
        graph = base_graph.fresh_copy()
        actives = set(graph.cities(graph.active))
        pruner = RulePruner()
        levels = [level for level in Level if level is not Level.CITY]
        predicates = [
            AttributeIn(level, (name,))
            for level in levels
            for name in sorted(
                {graph.name_of(node) for node in graph.nodes if node.level is level}
            )
        ]
        assert len(predicates) >= 4 + 12 + 24  # all attribute levels enumerated

        for predicate in predicates:
            question = SeekerOutput(question_text=predicate.render(), predicate=predicate)
            pruned = {}
            for reply in ("Yes", "No"):
                out = pruner.prune_decision(
                    question,
                    OracleOutput(rationale="", answer=reply, game_over=False),
                    graph,
                )
                pruned[reply] = set(out.pruned_ids)
            assert pruned["Yes"] | pruned["No"] == actives
            assert not pruned["Yes"] & pruned["No"]
            for target in actives:
                truthful = "Yes" if predicate.matches(graph, target) else "No"
                assert target not in pruned[truthful]
        assert time.monotonic() - start < 10.0


def test_criterion_05_baseline_ordering(greedy_sweep, random_sweep):
    with criterion(5, "random seeker needs more turns, earns less IG per turn"):
        greedy_report, _, _ = greedy_sweep
        assert random_sweep.aggregate.n_games == 120
        assert random_sweep.aggregate.avg_turns.mean > greedy_report.aggregate.avg_turns.mean
        assert random_sweep.aggregate.ig_per_turn.mean < greedy_report.aggregate.ig_per_turn.mean


def test_criterion_06_replay_determinism(greedy_sweep, thousand_random_games, base_graph):
    with criterion(6, "all 1,120 transcripts replay with zero divergences"):
        _, greedy_transcripts, _ = greedy_sweep
        transcripts, _ = thousand_random_games
        divergences = 0
        for transcript in greedy_transcripts + transcripts:
            recomputed = replay(transcript, base_graph)
            if recomputed != transcript.game_metrics:
                divergences += 1
        assert divergences == 0


def test_criterion_07_wire_format_conformance(mock_llm, base_graph):
    with criterion(7, "JSON reply parsing plus a scripted end-to-end LLM win"):
        oracle_shape = '{"rationale": "The target is in Asia.", "answer": "Yes", "game_over": false}'
        parsed = parse_oracle_json(oracle_shape)
        assert (parsed.answer, parsed.game_over) == ("Yes", False)
        fenced = f"```json\n{oracle_shape}\n```"
        assert parse_oracle_json(fenced).rationale == "The target is in Asia."
        with pytest.raises(MalformedResponseError):
            parse_oracle_json('{"rationale": "x", "answer": "Yes"}')  # missing key
        with pytest.raises(MalformedResponseError):
            parse_oracle_json('{"rationale": "x", "answer": "Yes", "game_over": "false"}')

        pruner_shape = '{"rationale": "Not in Africa.", "pruned_ids": ["city:5", "city:13"]}'
        assert parse_pruner_json(pruner_shape).pruned_ids == (
            NodeId(Level.CITY, 5),
            NodeId(Level.CITY, 13),
        )
        assert parse_pruner_json('{"rationale": "keep all", "pruned_ids": []}').pruned_ids == ()
        with pytest.raises(NonCityIdInResponseError):
            parse_pruner_json('{"rationale": "x", "pruned_ids": ["state:3"]}')
        with pytest.raises(MalformedResponseError):
            parse_pruner_json('{"rationale": "x"}')

        endpoint = EndpointConfig(
            base_url=mock_llm.url,
            model_name="scripted",
            backoff_seconds=0.01,
            timeout=5.0,
        )
        mock_llm.say("Is the target city Tokyo?")
        mock_llm.say(
            json.dumps(
                {
                    "rationale": "The guess names the target city.",
                    "answer": "Yes",
                    "game_over": True,
                }
            )
        )
        mock_llm.say(
            json.dumps(
                {
                    "rationale": "Target identified; everything else is ruled out.",
                    "pruned_ids": [f"city:{i}" for i in range(2, 41)],
                }
            )
        )
        transcript = play_game(
            LLMSeeker(endpoint),
            LLMOracle(endpoint),
            LLMPruner(endpoint),
            base_graph.fresh_copy(),
            GameConfig(target=TOKYO),
        )
        assert transcript.outcome == "win"
        assert transcript.game_metrics.turns == 1
        assert abs(transcript.game_metrics.total_ig - ENTROPY_40) < 1e-9
        assert len(mock_llm.requests) == 3


def test_criterion_08_decision_quality_pipeline(base_graph):
    with criterion(8, "decision quality matches hand-computed fixture values"):
        graph = base_graph.fresh_copy()
        cities = sorted(graph.city_leaves, key=lambda n: n.numeric_id)
        country_of = {
            city: graph.name_of(graph.ancestors(city)[1]) for city in cities
        }
        asia_ids = sorted(set(range(1, 41)) - set(NON_ASIA))
        japan = [c.numeric_id for c in cities if country_of[c] == "Japan"]
        china = [c.numeric_id for c in cities if country_of[c] == "China"]
        assert len(NON_ASIA) == 13 and len(asia_ids) == 27
        assert len(japan) == 3 and len(china) == 8

        japan_q = "Is the target city's country Japan?"
        china_q = "Is the target city's country China?"
        first_trace = f'Either "{ASIA_Q}" or "{EUROPE_Q}"; Asia is nearer half.'
        second_trace = f'Now "{japan_q}" or "{china_q}".'

        sharp = manual_transcript(
            base_graph,
            TOKYO,
            [
                (ASIA_Q, first_trace, "Yes", NON_ASIA),
                (japan_q, second_trace, "Yes", sorted(set(asia_ids) - set(japan))),
            ],
        )
        blunt = manual_transcript(
            base_graph,
            TOKYO,
            [
                (ASIA_Q, first_trace, "Yes", NON_ASIA),
                (china_q, second_trace, "No", china),
            ],
        )
        games = [sharp] * 6 + [blunt] * 4

        ig_turn1 = math.log2(40 / 27)
        ig_japan = math.log2(27 / 3)
        ig_china = math.log2(27 / 19)
        per_game_rate = [1.0] * 6 + [0.5] * 4
        per_game_chosen = [(ig_turn1 + ig_japan) / 2] * 6 + [(ig_turn1 + ig_china) / 2] * 4
        per_game_optimal = [(ig_turn1 + ig_japan) / 2] * 10

        report = decision_quality(games, base_graph)
        assert report.turns_analyzed == 20
        assert report.turns_skipped == 0
        assert report.avg_optimal_rate.mean == pytest.approx(0.8, abs=1e-12)
        assert report.avg_optimal_rate.std == pytest.approx(
            statistics.stdev(per_game_rate), abs=1e-12
        )
        assert report.avg_chosen_ig.mean == pytest.approx(
            statistics.fmean(per_game_chosen), abs=1e-12
        )
        assert report.avg_chosen_ig.std == pytest.approx(
            statistics.stdev(per_game_chosen), abs=1e-12
        )
        assert report.avg_optimal_ig.mean == pytest.approx(
            statistics.fmean(per_game_optimal), abs=1e-12
        )
        assert report.avg_optimal_ig.std == pytest.approx(0.0, abs=1e-12)
        assert report.avg_questions_per_turn.mean == 2.0
        assert report.avg_questions_per_turn.std == 0.0

        decisions = [d for _, d in iter_turn_decisions(games, base_graph)]
        assert len(decisions) == 20
        assert all(d.optimal_ig >= d.chosen_ig for d in decisions)


def test_criterion_09_aggregation_arithmetic():
    with criterion(9, "SE arithmetic on win/loss and identical-game fixtures"):
        win = GameMetrics.from_turns(True, [TurnMetrics.measure(40, 20)])
        loss = GameMetrics.from_turns(False, [TurnMetrics.measure(40, 20)])
        mixed = aggregate([win, loss])
        assert mixed.win_rate.mean == 0.5
        assert mixed.win_rate.se == pytest.approx(0.5)
        assert str(mixed.win_rate) == "0.50 ± 0.50"
        for k in (2, 7):
            flat = aggregate([win] * k)
            assert flat.win_rate.se == 0.0
            assert flat.avg_turns.se == 0.0
            assert flat.ig_per_turn.se == 0.0
            assert flat.total_ig.se == 0.0


def test_criterion_10_dataset_pipeline(capsys):
    with criterion(10, "vendored CSV validates; top-n selection is idempotent"):
        outputs = []
        for _ in range(2):
            assert cli_main(["validate-data", CSV]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]  # stable hash and counts
        assert "records: 40" in outputs[0]
        assert "nodes: region=4 subregion=12 country=24 state=39 city=40" in outputs[0]
        assert "content_hash: " in outputs[0]

        rng = random.Random(2025)
        for trial in range(20):
            size = rng.randint(5, 30)
            records = [
                CityRecord(
                    city_id=i,
                    city_name=f"C{i}",
                    state_id=i,
                    state_name=f"S{i}",
                    country_id=1 + i % 5,
                    country_name=f"K{i % 5}",
                    region_id=1,
                    region_name="R",
                    subregion_id=1,
                    subregion_name="SR",
                    population_2025=rng.choice([10_000, 50_000, rng.randint(1, 10**7)]),
                )
                for i in range(1, size + 1)
            ]
            rng.shuffle(records)
            n = rng.randint(1, size)
            once = top_n_by_population(records, n)
            assert top_n_by_population(once, n) == once
            assert len(once) == n
