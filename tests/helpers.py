"""Shared builders for tests that assemble transcripts or script seekers by hand."""

from typing import Iterable

from infoseek.agents import AgentFailure, SeekerContext, SeekerOutput
from infoseek.engine import (
    OUTCOME_TURN_LIMIT,
    GameConfig,
    GameTranscript,
    TurnRecord,
)
from infoseek.metrics import GameMetrics, TurnMetrics
from infoseek.questions import Predicate
from infoseek.taxonomy import Level, NodeId

TOKYO = NodeId(Level.CITY, 1)

# (number, "PASS"/"FAIL", label) tuples collected by the acceptance tests;
# conftest's terminal-summary hook prints them once capture is released.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []

# region split of the bundled file: 27 Asia / 4 Africa / 6 Americas / 3 Europe
NON_ASIA = [5, 6, 7, 13, 14, 17, 23, 25, 27, 30, 31, 34, 39]
EUROPE = [25, 31, 34]

ASIA_Q = "Is the target city in Asia?"
EUROPE_Q = "Is the target city in Europe?"


def manual_transcript(base_graph, target, turns_spec, max_turns=30):
    """Build a transcript by hand: (question, trace, answer, pruned city ids)."""
    g = base_graph.fresh_copy()
    records = []
    for i, (question, trace, answer, ids) in enumerate(turns_spec, start=1):
        n_before = g.active_count()
        pruned = tuple(NodeId(Level.CITY, n) for n in ids)
        if pruned:
            g.prune(pruned)
        records.append(
            TurnRecord(
                turn_index=i,
                question_text=question,
                predicate=None,
                oracle_answer=answer,
                game_over=False,
                pruned_ids=pruned,
                metrics=TurnMetrics.measure(n_before, g.active_count()),
                seeker_trace=trace,
            )
        )
    return GameTranscript(
        config=GameConfig(target=target, max_turns=max_turns),
        dataset_fingerprint=base_graph.fingerprint,
        turns=tuple(records),
        outcome=OUTCOME_TURN_LIMIT,
        game_metrics=GameMetrics.from_turns(False, [r.metrics for r in records]),
    )


class ScriptedSeeker:
    """Plays back a fixed list of questions."""

    def __init__(self, turns: Iterable[Predicate | str | SeekerOutput]) -> None:
        self._turns = list(turns)

    def ask(self, ctx: SeekerContext) -> SeekerOutput:
        i = ctx.turn_index - 1
        if i >= len(self._turns):
            raise AgentFailure(f"script exhausted at turn {ctx.turn_index}")
        turn = self._turns[i]
        if isinstance(turn, SeekerOutput):
            return turn
        if isinstance(turn, str):
            return SeekerOutput(question_text=turn)
        return SeekerOutput(question_text=turn.render(), predicate=turn)
