import dataclasses
import math
import statistics

import pytest

from helpers import ASIA_Q, EUROPE, EUROPE_Q, NON_ASIA, TOKYO, manual_transcript

from infoseek.agents import GreedyHalvingSeeker, RuleOracle, RulePruner
from infoseek.engine import (
    FingerprintMismatchError,
    GameConfig,
    ReplayDivergenceError,
    play_game,
)
from infoseek.metrics import TurnMetrics
from infoseek.questions import AttributeIn, CityGuess, CityIn
from infoseek.taxonomy import Level, NodeId
from infoseek.trace_analysis import (
    QuestionParser,
    decision_quality,
    extract_candidates,
    iter_turn_decisions,
    score_turn,
)


class TestQuestionParser:
    @pytest.fixture
    def parser(self, base_graph):
        return QuestionParser(base_graph)

    @pytest.mark.parametrize(
        "text,expected",
        [
            (ASIA_Q, AttributeIn(Level.REGION, ("Asia",))),
            ("is it in asia", AttributeIn(Level.REGION, ("Asia",))),
            ("Is the target city in Eastern Asia?", AttributeIn(Level.SUBREGION, ("Eastern Asia",))),
            ("Is the target city in Japan?", AttributeIn(Level.COUNTRY, ("Japan",))),
            ("Is the target city in asia or africa?", AttributeIn(Level.REGION, ("Asia", "Africa"))),
            ("Is the target city's country Japan?", AttributeIn(Level.COUNTRY, ("Japan",))),
            ("is the target city's country japan?", AttributeIn(Level.COUNTRY, ("Japan",))),
            ("Is the target city's province Maharashtra?", AttributeIn(Level.STATE, ("Maharashtra",))),
            (
                "Is the target city's state one of Maharashtra or Karnataka?",
                AttributeIn(Level.STATE, ("Karnataka", "Maharashtra")),
            ),
            ("Is the target city in Mumbai or Karachi?", CityIn(("Karachi", "Mumbai"))),
            (
                'Is the target city one of Tokyo, Delhi or Cairo?',
                CityIn(("Cairo", "Delhi", "Tokyo")),
            ),
            # Tokyo and Delhi double as state names; coarsest level wins
            ("Is the target city in Tokyo or Delhi?", AttributeIn(Level.STATE, ("Delhi", "Tokyo"))),
            ("Is the target city Tokyo?", CityGuess("Tokyo")),
            ("Is it Tokyo?", CityGuess("Tokyo")),
            ("is the target city called paris?", CityGuess("Paris")),
            ('"Is the target city named Moscow?"', CityGuess("Moscow")),
        ],
    )
    def test_surface_forms(self, parser, text, expected):
        assert parser.parse(text) == expected

    def test_canonical_passthrough(self, parser):
        assert parser.parse("attr:region:Asia") == AttributeIn(Level.REGION, ("Asia",))
        assert parser.parse("cityin:Delhi|Tokyo") == CityIn(("Tokyo", "Delhi"))
        assert parser.parse("guess:Tokyo") == CityGuess("Tokyo")
        assert parser.parse("attr:region:") is None

    @pytest.mark.parametrize(
        "text",
        [
            "What color is the flag?",
            "Is the target city in Narnia?",
            "Is the target city's hemisphere northern?",
            "Tell me the city",
            "",
            "Is the target city's country?",
        ],
    )
    def test_unparseable_returns_none(self, parser, text):
        assert parser.parse(text) is None

    def test_unknown_guess_name_still_parses(self, parser, base_graph):
        # a guess for a city outside the dataset is valid but matches nothing
        pred = parser.parse("Is the target city Atlantis?")
        assert pred == CityGuess("Atlantis")
        assert not pred.matches(base_graph, TOKYO)


class TestHeuristicExtractor:
    def test_quoted_candidates(self):
        trace = (
            'I could split by region with "Is the target city in Asia?" or go finer '
            'with "Is the target city in Europe?" — Asia is closer to half.'
        )
        assert extract_candidates(trace) == [ASIA_Q, EUROPE_Q]

    def test_numbered_list(self):
        trace = "Options:\n1. Is it in Asia?\n2. Is it in Europe?\n3. Is it Tokyo?"
        assert extract_candidates(trace) == [
            "Is it in Asia?",
            "Is it in Europe?",
            "Is it Tokyo?",
        ]

    def test_colon_prefixed(self):
        trace = "Best candidate: is the city in Japan?"
        assert extract_candidates(trace) == ["is the city in Japan?"]

    def test_statements_with_question_marks_ignored(self):
        trace = "The space has 40 candidates? Hmm, tricky."
        assert extract_candidates(trace) == []

    def test_dedupes_case_variants(self):
        trace = 'Maybe "Is it in Asia?" yes, "is it in asia?" sounds right.'
        assert extract_candidates(trace) == ["Is it in Asia?"]

    def test_newlines_inside_a_question(self):
        trace = 'Perhaps "Is the target\ncity in Asia?"'
        assert extract_candidates(trace) == ["Is the target city in Asia?"]

    def test_empty_trace(self):
        assert extract_candidates("") == []


class TestExtractCandidates:
    def test_executed_question_appended_when_missing(self):
        texts = extract_candidates(
            'Considering "Is it in Asia?" first.',
            executed_question=EUROPE_Q,
        )
        assert texts == ["Is it in Asia?", EUROPE_Q]

    def test_executed_question_not_duplicated(self):
        texts = extract_candidates(
            f'Going with "{ASIA_Q.lower()}" now.',
            executed_question=ASIA_Q,
        )
        assert len(texts) == 1

    def test_empty_trace_yields_executed_only(self):
        assert extract_candidates("", ASIA_Q) == [ASIA_Q]


class TestScoreTurn:
    @pytest.fixture
    def parser(self, base_graph):
        return QuestionParser(base_graph)

    def test_optimal_choice(self, graph, parser):
        decision = score_turn([ASIA_Q, EUROPE_Q], graph, TOKYO, parser, 1, ASIA_Q)
        assert decision is not None
        assert decision.chosen_ig == pytest.approx(math.log2(40 / 27))
        assert decision.optimal_ig == pytest.approx(math.log2(40 / 27))
        assert decision.is_optimal is True
        assert decision.unparseable_count == 0

    def test_suboptimal_choice(self, graph, parser):
        decision = score_turn([ASIA_Q, EUROPE_Q], graph, TOKYO, parser, 1, EUROPE_Q)
        assert decision.chosen_ig == pytest.approx(math.log2(40 / 37))
        assert decision.optimal_ig == pytest.approx(math.log2(40 / 27))
        assert decision.is_optimal is False

    def test_all_unparseable_is_skipped(self, graph, parser):
        assert score_turn(["Huh?", "What?"], graph, TOKYO, parser, 1, "Huh?") is None

    def test_executed_not_among_candidates_is_skipped(self, graph, parser):
        assert score_turn([ASIA_Q], graph, TOKYO, parser, 1, "Something else?") is None

    def test_unparseable_executed_falls_back_to_realized(self, graph, parser):
        decision = score_turn(
            ["Mystery question?", ASIA_Q],
            graph,
            TOKYO,
            parser,
            1,
            "Mystery question?",
            realized_ig=0.25,
        )
        assert decision.chosen_ig == 0.25
        assert decision.optimal_ig == pytest.approx(math.log2(40 / 27))
        assert decision.is_optimal is False
        assert decision.unparseable_count == 1

    def test_unparseable_executed_without_realized_is_skipped(self, graph, parser):
        assert (
            score_turn(["Mystery?", ASIA_Q], graph, TOKYO, parser, 1, "Mystery?")
            is None
        )

    def test_dominance_always_holds(self, graph, parser):
        decision = score_turn(
            [ASIA_Q, EUROPE_Q, "Is the target city Tokyo?"], graph, TOKYO, parser, 1, ASIA_Q
        )
        assert decision.optimal_ig >= decision.chosen_ig
        # with Tokyo the actual target, guessing it is hindsight-optimal
        assert decision.optimal_ig == pytest.approx(math.log2(40))


class TestIterTurnDecisions:
    def test_traceless_turns_are_skipped(self, base_graph):
        cfg = GameConfig(target=TOKYO)
        transcript = play_game(
            GreedyHalvingSeeker(), RuleOracle(), RulePruner(), base_graph.fresh_copy(), cfg
        )
        results = list(iter_turn_decisions([transcript], base_graph))
        assert len(results) == len(transcript.turns)
        assert all(decision is None for _, decision in results)

    def test_scores_against_pre_prune_state(self, base_graph):
        """Each decision's chosen gain must equal the recorded realized gain."""
        cfg = GameConfig(target=NodeId(Level.CITY, 23))
        transcript = play_game(
            GreedyHalvingSeeker(), RuleOracle(), RulePruner(), base_graph.fresh_copy(), cfg
        )
        traced = dataclasses.replace(
            transcript,
            turns=tuple(
                dataclasses.replace(t, seeker_trace=f'Asking "{t.question_text}" now.')
                for t in transcript.turns
            ),
        )
        results = list(iter_turn_decisions([traced], base_graph))
        assert all(decision is not None for _, decision in results)
        for (_, decision), turn in zip(results, traced.turns):
            assert decision.chosen_ig == turn.metrics.ig
            assert decision.is_optimal is True  # sole candidate each turn

    def test_fingerprint_mismatch_rejected(self, base_graph, factory):
        from infoseek.taxonomy import build_graph

        other = build_graph([factory.record("Tokyo", "T", "Japan", "EA", "Asia")])
        transcript = manual_transcript(base_graph, TOKYO, [(ASIA_Q, None, "Yes", NON_ASIA)])
        with pytest.raises(FingerprintMismatchError):
            list(iter_turn_decisions([transcript], other))

    def test_tampered_entropy_detected(self, base_graph):
        transcript = manual_transcript(base_graph, TOKYO, [(ASIA_Q, None, "Yes", NON_ASIA)])
        doctored_turn = dataclasses.replace(
            transcript.turns[0],
            metrics=dataclasses.replace(transcript.turns[0].metrics, h_before=3.0),
        )
        doctored = dataclasses.replace(transcript, turns=(doctored_turn,))
        with pytest.raises(ReplayDivergenceError):
            list(iter_turn_decisions([doctored], base_graph))

    def test_pruned_target_is_a_divergence(self, base_graph):
        # the target takes the place of one non-Asian city, so every count holds
        pruned = [TOKYO.numeric_id, *NON_ASIA[1:]]
        transcript = manual_transcript(base_graph, TOKYO, [(ASIA_Q, None, "Yes", pruned)])
        with pytest.raises(ReplayDivergenceError):
            list(iter_turn_decisions([transcript], base_graph))

    def test_impossible_prune_is_a_divergence(self, base_graph):
        transcript = manual_transcript(base_graph, TOKYO, [(ASIA_Q, None, "Yes", NON_ASIA)])
        first = transcript.turns[0]
        # entropy checks out, but the second turn re-prunes the same cities
        repeat = dataclasses.replace(
            first, turn_index=2, metrics=TurnMetrics.measure(27, 27)
        )
        doctored = dataclasses.replace(transcript, turns=(first, repeat))
        with pytest.raises(ReplayDivergenceError):
            list(iter_turn_decisions([doctored], base_graph))


class TestDecisionQuality:
    def test_two_game_hand_computed(self, base_graph):
        trace = f'Either "{ASIA_Q}" or "{EUROPE_Q}" could work.'
        good = manual_transcript(base_graph, TOKYO, [(ASIA_Q, trace, "Yes", NON_ASIA)])
        poor = manual_transcript(base_graph, TOKYO, [(EUROPE_Q, trace, "No", EUROPE)])
        report = decision_quality([good, poor], base_graph)

        ig_asia = math.log2(40 / 27)
        ig_europe = math.log2(40 / 37)
        assert report.turns_analyzed == 2
        assert report.turns_skipped == 0
        assert report.avg_optimal_rate.mean == 0.5
        assert report.avg_optimal_rate.std == pytest.approx(statistics.stdev([1.0, 0.0]))
        assert report.avg_chosen_ig.mean == pytest.approx((ig_asia + ig_europe) / 2)
        assert report.avg_optimal_ig.mean == pytest.approx(ig_asia)
        assert report.avg_optimal_ig.std == pytest.approx(0.0)
        assert report.avg_questions_per_turn.mean == 2.0

    def test_no_scorable_turns_reports_zeroes(self, base_graph):
        traceless = manual_transcript(base_graph, TOKYO, [(ASIA_Q, None, "Yes", NON_ASIA)])
        report = decision_quality([traceless], base_graph)
        assert report.turns_analyzed == 0
        assert report.turns_skipped == 1
        assert report.avg_optimal_rate.mean == 0.0
        assert report.avg_chosen_ig.std == 0.0

    def test_renders_two_decimals(self, base_graph):
        trace = f'"{ASIA_Q}"'
        game = manual_transcript(base_graph, TOKYO, [(ASIA_Q, trace, "Yes", NON_ASIA)])
        report = decision_quality([game], base_graph)
        assert str(report.avg_optimal_rate) == "1.00 ± 0.00"
