import dataclasses
import math
import os
import random

import pytest

from helpers import ScriptedSeeker

import infoseek.engine as engine
from infoseek.agents import (
    AgentFailure,
    GreedyHalvingSeeker,
    Observability,
    PrunerOutput,
    RandomSeeker,
    RuleOracle,
    RulePruner,
    SeekerContext,
    SeekerOutput,
)
from infoseek.engine import (
    OUTCOME_AGENT_FAILURE,
    OUTCOME_TURN_LIMIT,
    OUTCOME_WIN,
    EngineError,
    FingerprintMismatchError,
    GameConfig,
    InvalidTargetError,
    ReplayDivergenceError,
    TranscriptFormatError,
    load_transcript,
    play_game,
    replay,
    replay_turns,
    save_transcript,
    transcript_from_jsonl,
    transcript_to_jsonl,
)
from infoseek.metrics import GameMetrics
from infoseek.questions import AttributeIn, CityGuess
from infoseek.llm import EndpointConfig, LLMSeeker, build_seeker_messages
from infoseek.taxonomy import HypothesisGraph, Level, NodeId, build_graph

TOKYO = NodeId(Level.CITY, 1)
DELHI = NodeId(Level.CITY, 2)


def rule_game(graph, target, seeker=None, **cfg_kw):
    cfg = GameConfig(target=target, **cfg_kw)
    return play_game(
        seeker or GreedyHalvingSeeker(), RuleOracle(), RulePruner(), graph, cfg
    )


class TestGameConfig:
    def test_non_city_target_rejected(self):
        with pytest.raises(InvalidTargetError):
            GameConfig(target=NodeId(Level.STATE, 1))

    def test_turn_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            GameConfig(target=TOKYO, max_turns=0)


class TestPlayGame:
    def test_first_turn_guess_wins_with_full_gain(self, graph):
        seeker = ScriptedSeeker([CityGuess("Tokyo")])
        transcript = rule_game(graph, TOKYO, seeker)
        assert transcript.outcome == OUTCOME_WIN
        assert transcript.game_metrics.win is True
        assert transcript.game_metrics.turns == 1
        (turn,) = transcript.turns
        assert len(turn.pruned_ids) == 39
        assert math.isclose(turn.metrics.ig, math.log2(40), abs_tol=1e-12)
        assert math.isclose(transcript.game_metrics.total_ig, math.log2(40), abs_tol=1e-12)

    def test_greedy_full_game(self, graph):
        transcript = rule_game(graph, DELHI)
        assert transcript.outcome == OUTCOME_WIN
        assert transcript.game_metrics.turns <= 7
        assert math.isclose(transcript.game_metrics.total_ig, math.log2(40), abs_tol=1e-9)

    def test_entropy_chain_is_seamless(self, graph):
        transcript = rule_game(graph, NodeId(Level.CITY, 17))
        turns = transcript.turns
        assert turns[0].metrics.h_before == math.log2(40)
        for prev, cur in zip(turns, turns[1:]):
            assert cur.metrics.h_before == prev.metrics.h_after
        assert turns[-1].metrics.h_after == 0.0

    def test_unparseable_questions_make_no_progress(self, graph):
        seeker = ScriptedSeeker(["What color is the flag?"] * 5)
        transcript = rule_game(graph, TOKYO, seeker, max_turns=5)
        assert transcript.outcome == OUTCOME_TURN_LIMIT
        assert transcript.game_metrics.win is False
        assert transcript.game_metrics.turns == 5
        assert transcript.game_metrics.total_ig == 0.0
        assert all(t.metrics.ig == 0.0 for t in transcript.turns)
        assert all(t.pruned_ids == () for t in transcript.turns)

    def test_text_only_questions_are_read_for_the_rule_agents(self, graph):
        seeker = ScriptedSeeker(["Is the target city in Asia?", "Is the target city Tokyo?"])
        transcript = rule_game(graph, TOKYO, seeker)
        assert transcript.outcome == OUTCOME_WIN
        assert transcript.turns[0].predicate == AttributeIn(Level.REGION, ("Asia",))
        assert transcript.turns[0].metrics.ig > 0
        assert transcript.turns[1].predicate == CityGuess("Tokyo")

    def test_rule_seekers_build_no_question_parser(self, graph, monkeypatch):
        def refuse(graph):
            raise AssertionError("a question parser was built")

        monkeypatch.setattr(engine, "QuestionParser", refuse)
        assert rule_game(graph, TOKYO).outcome == OUTCOME_WIN

    def test_game_ends_after_prune_phase_on_game_over(self, graph):
        seeker = ScriptedSeeker([CityGuess("Tokyo")])
        transcript = rule_game(graph, TOKYO, seeker)
        # the winning turn still runs the pruner: 39 candidates removed
        assert transcript.turns[-1].game_over is True
        assert len(transcript.turns[-1].pruned_ids) == 39
        assert transcript.turns[-1].metrics.h_after == 0.0

    def test_false_game_over_is_a_fault_not_a_win(self, graph):
        class EagerOracle:
            """Truthful, but claims the game is over on turn 1."""

            def answer(self, question, target, graph, history):
                out = RuleOracle().answer(question, target, graph, history)
                return dataclasses.replace(out, game_over=out.game_over or not history)

        cfg = GameConfig(target=TOKYO)
        transcript = play_game(GreedyHalvingSeeker(), EagerOracle(), RulePruner(), graph, cfg)
        first = transcript.turns[0]
        assert first.game_over is True
        assert first.consistency_faults == ("false_game_over",)
        assert len(transcript.turns) > 1  # play went on
        assert transcript.outcome == OUTCOME_WIN
        assert transcript.turns[-1].game_over is True
        assert transcript.turns[-1].metrics.h_after == 0.0
        assert math.isclose(transcript.game_metrics.total_ig, math.log2(40), abs_tol=1e-9)

    def test_agent_failure_charges_full_budget(self, graph):
        seeker = ScriptedSeeker([AttributeIn(Level.REGION, ("Asia",))])  # then exhausted
        transcript = rule_game(graph, TOKYO, seeker, max_turns=30)
        assert transcript.outcome == OUTCOME_AGENT_FAILURE
        assert transcript.game_metrics.win is False
        assert transcript.game_metrics.turns == 30
        assert len(transcript.turns) == 1  # only the completed turn is recorded
        assert transcript.game_metrics.ig_per_turn == transcript.game_metrics.total_ig / 30

    def test_turn_cap_is_hard(self, graph):
        class AskOnly:
            def ask(self, ctx):
                return SeekerOutput(question_text="Hmm?")

        cfg = GameConfig(target=TOKYO, max_turns=4)
        transcript = play_game(AskOnly(), RuleOracle(), RulePruner(), graph, cfg)
        assert transcript.outcome == OUTCOME_TURN_LIMIT
        assert len(transcript.turns) == 4

    def test_requires_fresh_graph(self, graph):
        graph.prune({DELHI})
        with pytest.raises(EngineError):
            rule_game(graph, TOKYO)

    def test_target_must_exist_in_dataset(self, graph):
        with pytest.raises(InvalidTargetError):
            rule_game(graph, NodeId(Level.CITY, 404))

    def test_history_accumulates_for_the_seeker(self, graph):
        seen: list[list[tuple[str, str]]] = []

        class Recording:
            def ask(self, ctx: SeekerContext) -> SeekerOutput:
                seen.append(list(ctx.history))
                return GreedyHalvingSeeker().ask(ctx)

        rule_game(graph, TOKYO, Recording())
        assert seen[0] == []
        assert len(seen[1]) == 1
        assert seen[1][0][1] in ("Yes", "No")
        assert [len(h) for h in seen] == list(range(len(seen)))

    def test_partial_observability_hides_graph_text(self, graph):
        texts: list[str | None] = []

        class Peek:
            def ask(self, ctx: SeekerContext) -> SeekerOutput:
                texts.append(ctx.graph_text)
                return GreedyHalvingSeeker().ask(ctx)

        cfg = GameConfig(target=TOKYO, observability=Observability.PARTIAL)
        play_game(Peek(), RuleOracle(), RulePruner(), graph, cfg)
        assert all(t is None for t in texts)

    def test_full_observability_shows_current_state(self, graph):
        texts: list[str] = []

        class Peek:
            def ask(self, ctx: SeekerContext) -> SeekerOutput:
                texts.append(ctx.graph_text)
                return GreedyHalvingSeeker().ask(ctx)

        rule_game(graph, TOKYO, Peek())
        assert all(t is not None for t in texts)
        assert "[PRUNED]" not in texts[0]
        assert "[PRUNED]" in texts[1]

    @pytest.fixture
    def renders(self, monkeypatch):
        """Counts HypothesisGraph.serialize_state calls."""
        calls = []
        real = HypothesisGraph.serialize_state

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(HypothesisGraph, "serialize_state", counting)
        return calls

    def test_rule_seekers_render_no_graph_text(self, graph, renders):
        transcript = rule_game(graph, TOKYO)
        rule_game(graph.fresh_copy(), TOKYO, RandomSeeker(), rng_seed=3)
        assert len(transcript.turns) > 1
        assert renders == []

    def test_graph_text_renders_once_on_first_read(self, graph, renders):
        full = SeekerContext([], 1, observability=Observability.FULL, graph=graph)
        partial = SeekerContext([], 1, observability=Observability.PARTIAL, graph=graph)
        assert renders == []
        user = build_seeker_messages(full)[1].content  # reads graph_text twice
        assert len(renders) == 1
        assert full.graph_text.rstrip() in user
        build_seeker_messages(partial)
        assert partial.graph_text is None
        assert len(renders) == 1

    @pytest.mark.parametrize(
        "observability, renders_per_turn",
        [(Observability.FULL, 1), (Observability.PARTIAL, 0)],
    )
    def test_llm_seeker_reads_graph_text_once_per_fo_turn(
        self, graph, mock_llm, renders, observability, renders_per_turn
    ):
        mock_llm.say("Is the target city in Asia?")
        mock_llm.say("Is the target city Tokyo?")
        endpoint = EndpointConfig(base_url=mock_llm.url, model_name="m", backoff_seconds=0.01)
        cfg = GameConfig(target=TOKYO, observability=observability)
        transcript = play_game(LLMSeeker(endpoint), RuleOracle(), RulePruner(), graph, cfg)
        assert transcript.outcome == OUTCOME_WIN
        assert len(renders) == renders_per_turn * len(transcript.turns) == renders_per_turn * 2
        user = mock_llm.requests[0]["body"]["messages"][1]["content"]
        assert ("city:1 Tokyo [ACTIVE]" in user) == (observability is Observability.FULL)

    def test_on_turn_sees_post_prune_state(self, graph):
        calls = []
        cfg = GameConfig(target=TOKYO)
        play_game(
            GreedyHalvingSeeker(),
            RuleOracle(),
            RulePruner(),
            graph,
            cfg,
            on_turn=lambda rec, g: calls.append((rec.turn_index, g.active_count())),
        )
        assert calls[0][0] == 1
        assert calls[0][1] < 40  # prune already applied
        assert [c[0] for c in calls] == list(range(1, len(calls) + 1))


class FaultyPruner:
    """Emits a fixed mix of bad ids around one legitimate prune."""

    def __init__(self, good: NodeId, bad: list[NodeId]):
        self.good = good
        self.bad = bad

    def prune_decision(self, question, answer, graph, turn_index=1):
        return PrunerOutput(
            rationale="messy", pruned_ids=tuple([self.good] + self.bad + [self.good])
        )


class TestPruneFaultFiltering:
    def test_each_fault_is_tagged_and_skipped(self, graph):
        bad = [
            NodeId(Level.CITY, 404),  # unknown
            NodeId(Level.STATE, 1),  # wrong level
            TOKYO,  # the target itself
        ]
        seeker = ScriptedSeeker([AttributeIn(Level.REGION, ("Europe",)), CityGuess("Tokyo")])
        cfg = GameConfig(target=TOKYO, max_turns=2)
        transcript = play_game(
            seeker, RuleOracle(), FaultyPruner(good=DELHI, bad=bad), graph, cfg
        )
        first = transcript.turns[0]
        assert first.pruned_ids == (DELHI,)
        assert set(first.consistency_faults) == {
            "unknown_id:city:404",
            "non_city_id:state:1",
            "target_in_prune_set:city:1",
            "already_pruned:city:2",  # the duplicate mention
        }
        assert graph.is_active(TOKYO)

    def test_inactive_resubmission_is_already_pruned(self, graph):
        class Stubborn:
            def prune_decision(self, question, answer, g, turn_index=1):
                return PrunerOutput(rationale="again", pruned_ids=(DELHI,))

        seeker = ScriptedSeeker(["Q one?", "Q two?"])
        cfg = GameConfig(target=TOKYO, max_turns=2)
        transcript = play_game(seeker, RuleOracle(), Stubborn(), graph, cfg)
        assert transcript.turns[0].pruned_ids == (DELHI,)
        assert transcript.turns[0].consistency_faults == ()
        assert transcript.turns[1].pruned_ids == ()
        assert transcript.turns[1].consistency_faults == ("already_pruned:city:2",)

    def test_faulty_game_still_completes(self, graph):
        transcript = play_game(
            ScriptedSeeker(["Anything?", CityGuess("Tokyo")]),
            RuleOracle(),
            FaultyPruner(good=DELHI, bad=[NodeId(Level.CITY, 999)]),
            graph,
            GameConfig(target=TOKYO, max_turns=2),
        )
        assert len(transcript.turns) == 2
        # The right guess ends no game while the pruner leaves 38 other cities.
        assert "false_game_over" in transcript.turns[1].consistency_faults
        assert transcript.outcome == OUTCOME_TURN_LIMIT


class TestDeterminism:
    def test_same_seed_same_bytes(self, base_graph):
        def run():
            cfg = GameConfig(target=NodeId(Level.CITY, 9), rng_seed=123)
            return transcript_to_jsonl(
                play_game(RandomSeeker(), RuleOracle(), RulePruner(), base_graph.fresh_copy(), cfg)
            )

        assert run() == run()

    def test_different_seeds_usually_differ(self, base_graph):
        outs = set()
        for seed in range(4):
            cfg = GameConfig(target=NodeId(Level.CITY, 9), rng_seed=seed)
            transcript = play_game(
                RandomSeeker(), RuleOracle(), RulePruner(), base_graph.fresh_copy(), cfg
            )
            outs.add(transcript.turns[0].question_text)
        assert len(outs) > 1


# Transcript edits that keep every entropy figure and total consistent, so
# only the engine's turn rule and footer rule can tell them from a played game.
def claim_win_after_two_turns(t):
    turns = t.turns[:2]
    metrics = GameMetrics.from_turns(True, [turn.metrics for turn in turns])
    return dataclasses.replace(t, turns=turns, outcome=OUTCOME_WIN, game_metrics=metrics)


def edit_first_turn(t, **changes):
    return dataclasses.replace(
        t, turns=(dataclasses.replace(t.turns[0], **changes),) + t.turns[1:]
    )


def count_one_more_turn(t):
    m = t.game_metrics
    more = dataclasses.replace(m, turns=m.turns + 1, ig_per_turn=m.total_ig / (m.turns + 1))
    return dataclasses.replace(t, game_metrics=more)


class TestReplay:
    def test_round_trip_matches(self, base_graph):
        transcript = rule_game(base_graph.fresh_copy(), NodeId(Level.CITY, 21))
        recomputed = replay(transcript, base_graph)
        assert recomputed.total_ig == pytest.approx(transcript.game_metrics.total_ig, abs=1e-12)
        assert recomputed.win is True

    def test_loaded_transcript_replays(self, base_graph, tmp_path):
        transcript = rule_game(base_graph.fresh_copy(), NodeId(Level.CITY, 33))
        path = tmp_path / "game.jsonl"
        save_transcript(transcript, path)
        loaded = load_transcript(path)
        assert replay(loaded, base_graph).total_ig == pytest.approx(
            transcript.game_metrics.total_ig
        )

    def test_wrong_dataset_is_refused(self, base_graph, factory):
        other = build_graph(
            [
                factory.record("Tokyo", "T", "Japan", "EA", "Asia"),
                factory.record("Delhi", "D", "India", "SA", "Asia"),
            ]
        )
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        with pytest.raises(FingerprintMismatchError):
            replay(transcript, other)

    def test_tampered_ig_detected(self, base_graph):
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        doctored_turn = dataclasses.replace(
            transcript.turns[0],
            metrics=dataclasses.replace(transcript.turns[0].metrics, ig=9.99),
        )
        doctored = dataclasses.replace(
            transcript, turns=(doctored_turn,) + transcript.turns[1:]
        )
        with pytest.raises(ReplayDivergenceError):
            replay(doctored, base_graph)

    def test_tampered_h_before_refused_before_its_turn_is_yielded(self, base_graph):
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        doctored = edit_first_turn(
            transcript, metrics=dataclasses.replace(transcript.turns[0].metrics, h_before=3.0)
        )
        with pytest.raises(ReplayDivergenceError):
            next(replay_turns(doctored, base_graph))

    def test_tampered_total_detected(self, base_graph):
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        doctored = dataclasses.replace(
            transcript,
            game_metrics=dataclasses.replace(transcript.game_metrics, total_ig=0.0),
        )
        with pytest.raises(ReplayDivergenceError):
            replay(doctored, base_graph)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(claim_win_after_two_turns, id="claims-a-win"),
            pytest.param(
                lambda t: edit_first_turn(
                    t, pruned_ids=(t.config.target,) + t.turns[0].pruned_ids[1:]
                ),
                id="prunes-its-target",
            ),
            pytest.param(
                lambda t: edit_first_turn(
                    t, pruned_ids=t.turns[0].pruned_ids + t.turns[0].pruned_ids[:1]
                ),
                id="repeats-a-pruned-id",
            ),
            pytest.param(count_one_more_turn, id="footer-turns"),
            pytest.param(lambda t: edit_first_turn(t, game_over=True), id="game-over-no-fault"),
        ],
    )
    def test_transcript_the_engine_could_not_write_is_refused(self, base_graph, edit):
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        assert transcript.outcome == OUTCOME_WIN and len(transcript.turns) > 2
        replay(transcript, base_graph)
        with pytest.raises(ReplayDivergenceError):
            replay(edit(transcript), base_graph)

    def test_impossible_prune_sequence_detected(self, base_graph):
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        # duplicate the first turn so its prunes repeat — second application must fail
        doctored = dataclasses.replace(
            transcript, turns=(transcript.turns[0], transcript.turns[0])
        )
        with pytest.raises(ReplayDivergenceError):
            replay(doctored, base_graph)


class TestJsonl:
    def test_round_trip_is_lossless(self, base_graph):
        transcript = rule_game(base_graph.fresh_copy(), NodeId(Level.CITY, 28))
        text = transcript_to_jsonl(transcript)
        again = transcript_from_jsonl(text)
        assert again == transcript
        assert transcript_to_jsonl(again) == text

    def test_line_kinds_and_order(self, base_graph):
        import json

        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        rows = [json.loads(l) for l in transcript_to_jsonl(transcript).splitlines()]
        assert rows[0]["kind"] == "header"
        assert rows[0]["schema_version"] == 1
        assert rows[-1]["kind"] == "footer"
        assert all(r["kind"] == "turn" for r in rows[1:-1])
        assert [r["turn_index"] for r in rows[1:-1]] == list(
            range(1, len(transcript.turns) + 1)
        )

    def test_audit_events_round_trip(self, base_graph):
        class Chatty:
            def ask(self, ctx):
                return SeekerOutput(
                    question_text="Is the target city Tokyo?",
                    predicate=CityGuess("Tokyo"),
                    raw='{"model": "stub"}',
                )

        cfg = GameConfig(target=TOKYO, audit=True)
        transcript = play_game(Chatty(), RuleOracle(), RulePruner(), base_graph.fresh_copy(), cfg)
        assert len(transcript.audit_events) == 1  # rule agents carry no raw payloads
        assert transcript.audit_events[0].role == "seeker"
        again = transcript_from_jsonl(transcript_to_jsonl(transcript))
        assert again.audit_events == transcript.audit_events

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda lines: lines[1:],  # header gone
            lambda lines: lines[:-1],  # footer gone
            lambda lines: lines + [lines[0]],  # duplicate header
            lambda lines: lines + [lines[-1]],  # duplicate footer
            lambda lines: lines + ['{"kind": "mystery"}'],
            lambda lines: lines + ["{not json"],
        ],
    )
    def test_structural_damage_is_rejected(self, base_graph, mutation):
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        lines = transcript_to_jsonl(transcript).splitlines()
        with pytest.raises(TranscriptFormatError):
            transcript_from_jsonl("\n".join(mutation(lines)))

    def test_schema_version_pinned(self, base_graph):
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        text = transcript_to_jsonl(transcript).replace(
            '"schema_version": 1', '"schema_version": 99'
        )
        with pytest.raises(TranscriptFormatError):
            transcript_from_jsonl(text)

    def test_bad_field_is_rejected(self, base_graph):
        transcript = rule_game(base_graph.fresh_copy(), TOKYO)
        text = transcript_to_jsonl(transcript).replace('"city:1"', '"city:one"')
        with pytest.raises(TranscriptFormatError):
            transcript_from_jsonl(text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"audit": false', '"audit": "false"'),
            ('"game_over": false', '"game_over": "no"'),
            ('"turn_index": 1}', '"turn_index": 1.7}'),
            ('"target": "city:1"', '"target": "region:3"'),
            ('"schema_version": 1', '"schema_version": true'),
        ],
    )
    def test_mistyped_field_is_rejected(self, base_graph, old, new):
        text = transcript_to_jsonl(rule_game(base_graph.fresh_copy(), TOKYO))
        assert old in text
        with pytest.raises(TranscriptFormatError):
            transcript_from_jsonl(text.replace(old, new, 1))

    def test_failed_save_keeps_the_previous_file(self, base_graph, tmp_path, monkeypatch):
        path = tmp_path / "game.jsonl"
        save_transcript(rule_game(base_graph.fresh_copy(), TOKYO), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_transcript(rule_game(base_graph.fresh_copy(), DELHI), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["game.jsonl"]
