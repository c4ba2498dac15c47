import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptedSeeker

from infoseek import agents
from infoseek.agents import (
    AgentFailure,
    EmptySpaceError,
    GreedyHalvingSeeker,
    HalfSpace,
    Observability,
    OracleOutput,
    RandomSeeker,
    RuleOracle,
    RulePruner,
    SeekerContext,
    SeekerOutput,
    candidate_predicates,
    greedy_choose,
    menu_predicate,
    rule_menu,
)
from infoseek.questions import (
    AttributeIn,
    CityGuess,
    CityIn,
    prune_set,
)
from infoseek.taxonomy import ATTRIBUTE_LEVELS, Level, NodeId, build_graph

TOKYO = NodeId(Level.CITY, 1)


def ask_of(pred) -> SeekerOutput:
    return SeekerOutput(question_text=pred.render(), predicate=pred)


def yes_no(flag: bool) -> OracleOutput:
    return OracleOutput(rationale="", answer="Yes" if flag else "No", game_over=False)


def brute_force_best_imbalance(graph) -> int:
    """Independent re-derivation of the best achievable yes/no split."""
    active = [c for c in graph.city_leaves if graph.is_active(c)]
    n = len(active)
    best = n  # worst possible: a question nobody matches
    for level in ATTRIBUTE_LEVELS:
        for value in {graph.attribute_name(c, level) for c in active}:
            pred = AttributeIn(level, (value,))
            yes = sum(pred.matches(graph, c) for c in active)
            best = min(best, abs(2 * yes - n))
    if n >= 2:
        best = min(best, n % 2)  # a half-split city list is always available
    return best


class TestCandidatePredicates:
    def test_census_on_full_graph(self, graph):
        cands = candidate_predicates(graph)
        attr = [p for p in cands if isinstance(p, AttributeIn)]
        cityin = [p for p in cands if isinstance(p, CityIn)]
        # one candidate per distinct active value per attribute level
        assert len(attr) == 4 + 12 + 24 + 39
        assert len(cityin) == 1
        assert len(cityin[0].values) == 20

    def test_values_shrink_with_pruning(self, graph):
        africa = prune_set(AttributeIn(Level.REGION, ("Africa",)), False, graph)
        graph.prune(africa)
        cands = candidate_predicates(graph)
        regions = {
            p.values[0]
            for p in cands
            if isinstance(p, AttributeIn) and p.level is Level.REGION
        }
        assert regions == {"Asia", "Americas", "Europe"}

    def test_single_candidate_space(self, factory):
        g = build_graph([factory.record("Tokyo", "T", "Japan", "EA", "Asia")])
        cands = candidate_predicates(g)
        assert all(isinstance(p, AttributeIn) for p in cands)


class TestGreedyChoose:
    def test_matches_brute_force_optimum(self, graph):
        chosen = greedy_choose(graph)
        active = [c for c in graph.city_leaves if graph.is_active(c)]
        yes = sum(chosen.matches(graph, c) for c in active)
        assert abs(2 * yes - len(active)) == brute_force_best_imbalance(graph)

    def test_stays_optimal_as_space_shrinks(self, graph):
        rng = random.Random(11)
        for _ in range(12):
            active = [c for c in graph.city_leaves if graph.is_active(c)]
            if len(active) <= 2:
                break
            chosen = greedy_choose(graph)
            yes = sum(chosen.matches(graph, c) for c in active)
            assert abs(2 * yes - len(active)) == brute_force_best_imbalance(graph)
            graph.prune({rng.choice(active)})

    def test_last_candidate_becomes_a_guess(self, graph):
        others = [c for c in graph.city_leaves if c != TOKYO]
        graph.prune(set(others))
        chosen = greedy_choose(graph)
        assert chosen == CityGuess("Tokyo")

    def test_tie_breaks_prefer_coarser_level(self, factory):
        # country P holds exactly half the cities; its subregion holds more
        records = [
            factory.record("A1", "S1", "P", "SubX", "X"),
            factory.record("A2", "S2", "P", "SubX", "X"),
            factory.record("B1", "S3", "Q", "SubX", "X"),
            factory.record("C1", "S4", "R", "SubY", "Y"),
        ]
        g = build_graph(records)
        chosen = greedy_choose(g)
        assert chosen == AttributeIn(Level.COUNTRY, ("P",))

    def test_half_space_counts_every_city_its_names_match(self, factory):
        def usa(city, state):
            return factory.record(city, state, "USA", "Northern America", "Americas")

        g = build_graph([usa("Springfield", "Illinois"), usa("Chicago", "Illinois"),
                         usa("Springfield", "Missouri"), usa("Kansas City", "Missouri")])
        half = rule_menu(g)[-1]
        assert half.values == ("Springfield", "Chicago")
        assert half.matches == 3 == sum(CityIn(half.values).matches(g, c) for c in g.city_leaves)
        # With Peoria for Kansas City no state halves the space; the half-space
        # splits 3 against 1 as Illinois does, and loses the tie to the coarser level.
        g = build_graph([usa("Springfield", "Illinois"), usa("Chicago", "Illinois"),
                         usa("Springfield", "Missouri"), usa("Peoria", "Illinois")])
        assert greedy_choose(g) == AttributeIn(Level.STATE, ("Illinois",))

    def test_perfect_attribute_split_beats_city_list(self, factory):
        records = [
            factory.record("A1", "S1", "P", "SubX", "X"),
            factory.record("A2", "S2", "P", "SubX", "X"),
            factory.record("B1", "S3", "Q", "SubY", "Y"),
            factory.record("B2", "S4", "Q", "SubY", "Y"),
        ]
        g = build_graph(records)
        chosen = greedy_choose(g)
        # region X vs Y already halves perfectly; coarsest level wins the tie
        assert chosen in (AttributeIn(Level.REGION, ("X",)), AttributeIn(Level.REGION, ("Y",)))

    def test_empty_space_rejected(self, graph):
        graph.active = 0  # bypass prune's emptiness guard
        with pytest.raises(EmptySpaceError):
            greedy_choose(graph)
        with pytest.raises(EmptySpaceError):
            candidate_predicates(graph)


def walk_greedy_turns(g, data) -> None:
    """Greedy's pick on each graph of a prune walk, against the three-key `min`
    it replaced: most even split, then coarser level, then smaller values."""
    for _ in range(data.draw(st.integers(1, 7))):
        n = g.active_count()
        if n == 1:
            return
        menus = []

        def recording_menu(graph):
            menus.append(rule_menu(graph))
            return menus[-1]

        with mock.patch.object(agents, "rule_menu", recording_menu):
            chosen = greedy_choose(g)
        (menu,) = menus
        half = menu[-1]
        assert isinstance(half, HalfSpace)
        # Only the half-space question is a CityIn; any other pick leaves its names unread.
        assert ("values" in vars(half)) == isinstance(chosen, CityIn)
        reference = min(menu, key=lambda e: (abs(2 * e.matches - n), e.level.depth, e.values))
        assert chosen == menu_predicate(reference)
        active = sorted(g.cities(g.active), key=lambda c: c.numeric_id)
        doomed = data.draw(st.sets(st.sampled_from(active), max_size=len(active) - 1))
        if doomed:
            g.prune(doomed)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_greedy_keeps_the_three_key_tie_break_on_the_bundled_graph(base_graph, data):
    walk_greedy_turns(base_graph.fresh_copy(), data)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_greedy_keeps_the_three_key_tie_break_with_case_variants(variant_graph, data):
    walk_greedy_turns(variant_graph.fresh_copy(), data)


class TestSeekers:
    def _ctx(self, graph, seed=0):
        return SeekerContext(history=[], turn_index=1, graph=graph, rng=random.Random(seed))

    def test_greedy_seeker_emits_render_and_predicate(self, graph):
        out = GreedyHalvingSeeker().ask(self._ctx(graph))
        assert out.predicate is not None
        assert out.question_text == out.predicate.render()

    def test_greedy_seeker_without_graph_fails(self):
        with pytest.raises(AgentFailure):
            GreedyHalvingSeeker().ask(SeekerContext(history=[], turn_index=1))

    def test_random_seeker_is_seed_deterministic(self, graph):
        a = RandomSeeker().ask(self._ctx(graph, seed=7))
        b = RandomSeeker().ask(self._ctx(graph.fresh_copy(), seed=7))
        assert a.predicate == b.predicate

    def test_random_seeker_draws_from_candidate_set(self, graph):
        cands = {p.canonical() for p in candidate_predicates(graph)}
        for seed in range(10):
            out = RandomSeeker().ask(self._ctx(graph, seed=seed))
            assert out.predicate.canonical() in cands

    def test_random_seeker_guesses_when_one_left(self, graph):
        graph.prune(set(c for c in graph.city_leaves if c != TOKYO))
        out = RandomSeeker().ask(self._ctx(graph))
        assert out.predicate == CityGuess("Tokyo")

    def test_scripted_seeker_replays_then_fails(self, graph):
        seeker = ScriptedSeeker(["Is the target city in Asia?", CityGuess("Tokyo")])
        first = seeker.ask(self._ctx(graph))
        assert first.question_text == "Is the target city in Asia?"
        assert first.predicate is None
        ctx2 = SeekerContext(history=[], turn_index=2, graph=graph)
        second = seeker.ask(ctx2)
        assert second.predicate == CityGuess("Tokyo")
        ctx3 = SeekerContext(history=[], turn_index=3, graph=graph)
        with pytest.raises(AgentFailure):
            seeker.ask(ctx3)


class TestRuleOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        idx=st.integers(0, 39),
        level=st.sampled_from(list(ATTRIBUTE_LEVELS)),
        other=st.integers(0, 39),
    )
    def test_truthful_on_attribute_questions(self, base_graph, idx, level, other):
        g = base_graph.fresh_copy()
        cities = sorted(g.city_leaves, key=lambda c: c.numeric_id)
        target, probe = cities[idx], cities[other]
        pred = AttributeIn(level, (g.attribute_name(probe, level),))
        out = RuleOracle().answer(ask_of(pred), target, g, [])
        assert (out.answer == "Yes") == pred.matches(g, target)
        assert out.game_over is False

    def test_correct_guess_ends_game(self, graph):
        out = RuleOracle().answer(ask_of(CityGuess("Tokyo")), TOKYO, graph, [])
        assert out.answer == "Yes"
        assert out.game_over is True

    def test_wrong_guess_keeps_playing(self, graph):
        out = RuleOracle().answer(ask_of(CityGuess("Delhi")), TOKYO, graph, [])
        assert out.answer == "No"
        assert out.game_over is False

    def test_unstructured_question_requests_clarification(self, graph):
        q = SeekerOutput(question_text="What hemisphere?")
        out = RuleOracle().answer(q, TOKYO, graph, [])
        assert out.game_over is False
        assert out.answer.startswith("Please ask a yes/no question")


class TestRulePruner:
    def test_prunes_exactly_the_ruled_out_set(self, graph):
        pred = AttributeIn(Level.REGION, ("Asia",))
        out = RulePruner().prune_decision(ask_of(pred), yes_no(True), graph, 1)
        assert set(out.pruned_ids) == set(prune_set(pred, True, graph))
        assert list(out.pruned_ids) == sorted(out.pruned_ids, key=lambda n: n.numeric_id)
        assert "13" in out.rationale  # 13 non-Asian cities get ruled out

    def test_no_answer_prunes_the_matching_side(self, graph):
        pred = AttributeIn(Level.COUNTRY, ("Japan",))
        out = RulePruner().prune_decision(ask_of(pred), yes_no(False), graph, 1)
        assert set(out.pruned_ids) == set(prune_set(pred, False, graph))
        assert len(out.pruned_ids) == 3

    def test_ambiguous_answer_prunes_nothing(self, graph):
        pred = AttributeIn(Level.REGION, ("Asia",))
        for text in (
            "Please ask a yes/no question about the target city.",
            "Not sure",
            "Noted",
            "Nope",
        ):
            answer = OracleOutput(rationale="", answer=text, game_over=False)
            out = RulePruner().prune_decision(ask_of(pred), answer, graph, 1)
            assert out.pruned_ids == (), text

    def test_unstructured_question_prunes_nothing(self, graph):
        q = SeekerOutput(question_text="Anything?")
        out = RulePruner().prune_decision(q, yes_no(True), graph, 1)
        assert out.pruned_ids == ()

    def test_answer_casing_and_padding_tolerated(self, graph):
        pred = CityGuess("Tokyo")
        for text, holds, n_pruned in (
            ("  YES  ", True, 39),
            ("Yes, it is", True, 39),
            ("No.", False, 1),
        ):
            answer = OracleOutput(rationale="", answer=text, game_over=holds)
            out = RulePruner().prune_decision(ask_of(pred), answer, graph, 1)
            assert set(out.pruned_ids) == set(prune_set(pred, holds, graph)), text
            assert len(out.pruned_ids) == n_pruned


def test_greedy_closed_loop_terminates_fast(base_graph):
    """Full rule-agent loop: every target found within seven turns."""
    oracle, pruner = RuleOracle(), RulePruner()
    for target in sorted(base_graph.city_leaves, key=lambda c: c.numeric_id):
        g = base_graph.fresh_copy()
        seeker = GreedyHalvingSeeker()
        for turn in range(1, 8):
            out = seeker.ask(SeekerContext(history=[], turn_index=turn, graph=g))
            ans = oracle.answer(out, target, g, [])
            decision = pruner.prune_decision(out, ans, g, turn)
            if decision.pruned_ids:
                g.prune(set(decision.pruned_ids))
            if ans.game_over:
                break
        else:
            pytest.fail(f"{target} not found within 7 turns")
        assert g.is_active(target)


def test_observability_values():
    assert Observability.FULL.value == "fo"
    assert Observability.PARTIAL.value == "po"
    assert Observability("po") is Observability.PARTIAL


# "Georgia" and "GEORGIA" are two states of one country: the menu, greedy and
# the parser must each read them as one value, spelled the same every run.
SPELLING_PROBE = """
import json
from infoseek.agents import candidate_predicates, greedy_choose
from infoseek.dataset import CityRecord
from infoseek.questions import QuestionParser
from infoseek.taxonomy import build_graph
rows = [(1, "Atlanta", 1, "Georgia"), (2, "Savannah", 2, "GEORGIA"),
        (3, "Austin", 3, "Texas"), (4, "Dallas", 3, "Texas")]
graph = build_graph([
    CityRecord(cid, city, sid, state, 1, "USA", 1, "Americas", 1, "Northern America")
    for cid, city, sid, state in rows
])
print(json.dumps({
    "greedy": greedy_choose(graph).canonical(),
    "menu": [p.canonical() for p in candidate_predicates(graph)],
    "parsed": QuestionParser(graph).parse("Is the target city's state georgia?").canonical(),
}))
"""


def test_case_variant_spelling_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        outputs.add(subprocess.run(
            [sys.executable, "-c", SPELLING_PROBE], env=env, capture_output=True, text=True,
            check=True,
        ).stdout)
    assert len(outputs) == 1
    (out,) = outputs
    got = json.loads(out)
    assert got["greedy"] == got["parsed"] == "attr:state:GEORGIA"
    folded = [c.casefold() for c in got["menu"]]
    assert len(folded) == len(set(folded))
    assert "attr:state:GEORGIA" in got["menu"]
