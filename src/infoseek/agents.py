"""Seeker/oracle/pruner roles and the deterministic rule-based players.

The three protocols define what the game engine needs from each role;
LLM-backed implementations live in the llm module. The rule agents here
are exact: the oracle answers from ground truth, the pruner removes
precisely the candidates the answer eliminates, and the greedy seeker
picks the most even split available each turn.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Protocol, Sequence

from .questions import AttributeIn, CityGuess, CityIn, Predicate, prune_set
from .taxonomy import ATTRIBUTE_LEVELS, HypothesisGraph, NodeId


class AgentFailure(Exception):
    """An agent could not produce a usable output; the game aborts."""


class EmptySpaceError(AgentFailure):
    pass


class Observability(str, Enum):
    """What the seeker sees each turn: the full graph text, or dialogue only."""

    FULL = "fo"
    PARTIAL = "po"


@dataclass
class SeekerContext:
    """Everything a seeker may look at when choosing its next question.

    `history` is (question, answer) pairs from earlier turns. `graph_text`
    is the serialized tree, present only under full observability.
    `graph` is a live handle for the rule-based agents; text-conditioned
    seekers must ignore it. `rng` is the game-owned randomness source.
    """

    history: list[tuple[str, str]]
    turn_index: int
    graph_text: str | None = None
    graph: HypothesisGraph | None = None
    rng: random.Random | None = None


@dataclass(frozen=True)
class SeekerOutput:
    question_text: str
    predicate: Predicate | None = None
    reasoning_trace: str | None = None
    raw: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class OracleOutput:
    rationale: str
    answer: str
    game_over: bool
    raw: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class PrunerOutput:
    rationale: str
    pruned_ids: tuple[NodeId, ...]
    raw: str | None = field(default=None, compare=False)


class Seeker(Protocol):
    def ask(self, ctx: SeekerContext) -> SeekerOutput: ...


class Oracle(Protocol):
    def answer(
        self,
        question: SeekerOutput,
        target: NodeId,
        graph: HypothesisGraph,
        history: Sequence[tuple[str, str]],
    ) -> OracleOutput: ...


class Pruner(Protocol):
    def prune_decision(
        self,
        question: SeekerOutput,
        answer: OracleOutput,
        graph: HypothesisGraph,
        turn_index: int = 1,
    ) -> PrunerOutput: ...


def candidate_predicates(graph: HypothesisGraph) -> list[Predicate]:
    """The question menu a rule seeker considers on the current graph.

    One single-value attribute test per distinct active value at each
    level above city, plus one half-space city-set question.
    """
    n = graph.active_count()
    if n == 0:
        raise EmptySpaceError("no active candidates")
    candidates: list[Predicate] = []
    for level in ATTRIBUTE_LEVELS:
        names = {graph.attribute_name(c, level) for c in graph.active_cities}
        candidates.extend(AttributeIn(level, (name,)) for name in sorted(names))
    if n >= 2:
        ordered = sorted(graph.active_cities, key=str)
        half = [graph.name_of(c) for c in ordered[: n // 2]]
        candidates.append(CityIn(tuple(half)))
    return candidates


_LEVEL_RANK = {level: i for i, level in enumerate(ATTRIBUTE_LEVELS)}
_CITYIN_RANK = len(ATTRIBUTE_LEVELS)


def greedy_choose(graph: HypothesisGraph) -> Predicate:
    """Most even split available; ties break coarse-first, then by text.

    With one candidate left the only sensible move is to guess it.
    """
    n = graph.active_count()
    if n == 0:
        raise EmptySpaceError("no active candidates")
    if n == 1:
        (only,) = graph.active_cities
        return CityGuess(graph.name_of(only))

    scored: list[tuple[int, int, str, Predicate]] = []
    for level in ATTRIBUTE_LEVELS:
        counts: Counter[str] = Counter()
        display: dict[str, str] = {}
        for c in graph.active_cities:
            name = graph.attribute_name(c, level)
            folded = name.casefold()
            counts[folded] += 1
            display.setdefault(folded, name)
        for folded, count in counts.items():
            pred: Predicate = AttributeIn(level, (display[folded],))
            # |matching - non-matching|; 0 is a perfect halving.
            imbalance = abs(2 * count - n)
            scored.append((imbalance, _LEVEL_RANK[level], pred.canonical(), pred))

    ordered = sorted(graph.active_cities, key=str)
    half = tuple(graph.name_of(c) for c in ordered[: n // 2])
    city_pred: Predicate = CityIn(half)
    scored.append((n % 2, _CITYIN_RANK, city_pred.canonical(), city_pred))

    return min(scored)[3]


class GreedyHalvingSeeker:
    """Deterministic near-bisection play; guesses once one candidate remains."""

    def ask(self, ctx: SeekerContext) -> SeekerOutput:
        if ctx.graph is None:
            raise AgentFailure("rule seeker needs a graph handle")
        predicate = greedy_choose(ctx.graph)
        return SeekerOutput(question_text=predicate.render(), predicate=predicate)


class RandomSeeker:
    """Uniform pick from the question menu — the no-strategy baseline."""

    def ask(self, ctx: SeekerContext) -> SeekerOutput:
        if ctx.graph is None:
            raise AgentFailure("rule seeker needs a graph handle")
        if ctx.rng is None:
            raise AgentFailure("random seeker needs the game rng")
        n = ctx.graph.active_count()
        if n == 1:
            (only,) = ctx.graph.active_cities
            predicate: Predicate = CityGuess(ctx.graph.name_of(only))
        else:
            predicate = ctx.rng.choice(candidate_predicates(ctx.graph))
        return SeekerOutput(question_text=predicate.render(), predicate=predicate)


class ScriptedSeeker:
    """Plays back a fixed list of questions; for tests and replays."""

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


class RuleOracle:
    """Answers from ground truth; never lies, never reveals the target name."""

    def answer(
        self,
        question: SeekerOutput,
        target: NodeId,
        graph: HypothesisGraph,
        history: Sequence[tuple[str, str]],
    ) -> OracleOutput:
        if question.predicate is None:
            return OracleOutput(
                rationale="The question is not a yes/no membership test I can evaluate.",
                answer="Please ask a yes/no question about the target city.",
                game_over=False,
            )
        holds = question.predicate.matches(graph, target)
        if isinstance(question.predicate, CityGuess):
            return OracleOutput(
                rationale="Direct guess checked against the target city.",
                answer="Yes" if holds else "No",
                game_over=holds,
            )
        return OracleOutput(
            rationale="Membership test evaluated against the target's attributes.",
            answer="Yes" if holds else "No",
            game_over=False,
        )


# A word is a run of letters, so "No." and "Yes, it is" still count.
_FIRST_WORD_RE = re.compile(r"[^\W\d_]+")


class RulePruner:
    """Removes exactly the candidates the answer rules out.

    Only an answer whose first word is "yes" or "no" (any case) prunes;
    anything else is ambiguous and prunes nothing.
    """

    def prune_decision(
        self,
        question: SeekerOutput,
        answer: OracleOutput,
        graph: HypothesisGraph,
        turn_index: int = 1,
    ) -> PrunerOutput:
        first = _FIRST_WORD_RE.match(answer.answer.strip())
        word = first.group().casefold() if first else ""
        if question.predicate is None or word not in ("yes", "no"):
            return PrunerOutput(
                rationale="Ambiguous exchange; nothing can be safely eliminated.",
                pruned_ids=(),
            )
        eliminated = prune_set(question.predicate, word == "yes", graph)
        return PrunerOutput(
            rationale=f"Answer rules out {len(eliminated)} candidate(s).",
            pruned_ids=tuple(sorted(eliminated, key=lambda i: i.numeric_id)),
        )
