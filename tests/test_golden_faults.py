"""Behaviour lock for the transcript shapes the sweep digests never write.

The rule and LLM sweeps record wins and clean games only. These scripted
games, played with audit on, cover the rest: an `agent_failure` footer
(charged `max_turns`, not the turns played), every consistency fault the
engine tags, a hedged answer with an empty prune, a win whose prune also
carried faults, and audit rows next to all of them.

Refactors must keep the digest byte-identical. A change to it must be
deliberate, explained in CHANGES.md, and versioned.
"""

import hashlib

from helpers import TOKYO, ScriptedSeeker

from infoseek.agents import OracleOutput, PrunerOutput, SeekerOutput
from infoseek.engine import (
    OUTCOME_AGENT_FAILURE,
    OUTCOME_TURN_LIMIT,
    OUTCOME_WIN,
    GameConfig,
    play_game,
    replay,
    transcript_from_jsonl,
    transcript_to_jsonl,
)
from infoseek.questions import AttributeIn, CityGuess
from infoseek.taxonomy import Level, NodeId

FAULT_DIGEST = "8b1f1ae2b6c4f5d3088f4ef8496f20aa657ed3f7787c2b87cfe24a4a1b152b12"

DELHI = NodeId(Level.CITY, 2)


def city(n: int) -> NodeId:
    return NodeId(Level.CITY, n)


class ScriptedOracle:
    """Plays back (answer, game_over) pairs, each with a raw reply for the audit."""

    def __init__(self, replies):
        self._replies = list(replies)

    def answer(self, question, target, graph, history):
        answer, game_over = self._replies[len(history)]
        raw = f'{{"answer": "{answer}", "game_over": {str(game_over).lower()}}}'
        return OracleOutput(rationale="scripted", answer=answer, game_over=game_over, raw=raw)


class ScriptedPruner:
    """Plays back one requested prune per turn, valid or not."""

    def __init__(self, prunes):
        self._prunes = list(prunes)

    def prune_decision(self, question, answer, graph, turn_index=1):
        ids = tuple(self._prunes[turn_index - 1])
        return PrunerOutput(rationale="scripted", pruned_ids=ids, raw=" ".join(map(str, ids)))


def ask(question, predicate=None, trace=None):
    return SeekerOutput(
        question_text=question, predicate=predicate, reasoning_trace=trace, raw=f"Q: {question}"
    )


def failure_game(graph):
    """Faults, a hedge with an empty prune, a false claim, then a failure."""
    seeker = ScriptedSeeker([
        ask("Is the target city in Europe?", AttributeIn(Level.REGION, ("Europe",)),
            trace="Is it in Asia? Or is the target city in Europe?"),
        ask("Is the target city big?"),
        ask("Is the target city Tokyo?", CityGuess("Tokyo")),
    ])
    oracle = ScriptedOracle([("No", False), ("Maybe, it depends", False), ("Yes", True)])
    pruner = ScriptedPruner([
        # valid, unknown, repeated, non-city, the target itself
        [city(25), city(31), city(404), city(25), NodeId(Level.STATE, 1), TOKYO, city(34)],
        [],
        [city(31), DELHI],  # an inactive id again, one valid id, and a win claimed too early
    ])
    cfg = GameConfig(target=TOKYO, max_turns=6, audit=True)
    return play_game(seeker, oracle, pruner, graph, cfg)


def hedge_game(graph):
    """Hedged answers only: every prune is empty and the game hits its turn cap."""
    seeker = ScriptedSeeker([ask("Is the target city in Asia?"), ask("Is it a capital?")])
    oracle = ScriptedOracle([("Probably", False), ("I cannot say", False)])
    cfg = GameConfig(target=DELHI, max_turns=2, audit=True)
    return play_game(seeker, oracle, ScriptedPruner([[], []]), graph, cfg)


def faulty_win(graph):
    """A right guess whose prune also names the target and an unknown id."""
    others = [city(n) for n in range(2, 41)]
    seeker = ScriptedSeeker([ask("Is the target city Tokyo?", CityGuess("Tokyo"))])
    oracle = ScriptedOracle([("Yes", True)])
    pruner = ScriptedPruner([[TOKYO, *others, city(99)]])
    cfg = GameConfig(target=TOKYO, max_turns=4, audit=True)
    return play_game(seeker, oracle, pruner, graph, cfg)


def test_fault_and_failure_transcripts_match_pinned_digest(base_graph):
    games = [make(base_graph.fresh_copy()) for make in (failure_game, hedge_game, faulty_win)]
    assert [t.outcome for t in games] == [OUTCOME_AGENT_FAILURE, OUTCOME_TURN_LIMIT, OUTCOME_WIN]

    failed = games[0]
    assert failed.game_metrics.turns == 6 and len(failed.turns) == 3
    assert [f.split(":", 1)[0] for f in failed.turns[0].consistency_faults] == [
        "unknown_id", "already_pruned", "non_city_id", "target_in_prune_set",
    ]
    assert failed.turns[1].pruned_ids == ()
    assert failed.turns[2].consistency_faults == ("already_pruned:city:31", "false_game_over")
    assert [t.pruned_ids for t in games[1].turns] == [(), ()]
    assert games[2].turns[0].consistency_faults == (
        "target_in_prune_set:city:1", "unknown_id:city:99",
    )
    assert all(t.audit_events for t in games)

    digest = hashlib.sha256()
    for transcript in games:
        text = transcript_to_jsonl(transcript)
        digest.update(text.encode("utf-8"))
        loaded = transcript_from_jsonl(text)
        assert loaded == transcript
        assert loaded.audit_events == transcript.audit_events
        assert replay(loaded, base_graph) == transcript.game_metrics
    assert digest.hexdigest() == FAULT_DIGEST
