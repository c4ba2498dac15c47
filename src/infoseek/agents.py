"""Seeker/oracle/pruner roles and the deterministic rule-based players.

The three protocols define what the game engine needs from each role;
LLM-backed implementations live in the llm module. The rule agents here
are exact: the oracle answers from ground truth, the pruner removes
precisely the candidates the answer eliminates, and the greedy seeker
picks the most even split available each turn.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Protocol, Sequence

from .questions import AttributeIn, CityGuess, CityIn, Predicate, prune_set
from .taxonomy import ATTRIBUTE_LEVELS, HypothesisGraph, Level, NodeId, lowest_bits


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

    `history` is (question, answer) pairs from earlier turns. `graph` is a
    live handle for the rule-based agents; text-conditioned seekers read
    `graph_text` instead. `rng` is the game-owned randomness source.
    """

    history: list[tuple[str, str]]
    turn_index: int
    observability: Observability = Observability.PARTIAL
    graph: HypothesisGraph | None = None
    rng: random.Random | None = None

    @functools.cached_property
    def graph_text(self) -> str | None:
        """The serialized tree under full observability, rendered on first read."""
        full = self.observability is Observability.FULL and self.graph is not None
        return self.graph.serialize_state() if full else None


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


class MenuEntry(NamedTuple):
    """One question on the rule menu: is the target's `level` one of `values`?
    `matches` is the number of active cities that say yes."""

    level: Level
    values: tuple[str, ...]
    matches: int


class HalfSpace:
    """The half-space city-set entry of the rule menu, built only when read.

    Its values are the names of the lowest n // 2 active bits, each in its
    smallest spelling in the dataset, read once. Cities match by name, so
    `matches` counts every active city those names cover: the low bits and
    their namesakes.
    """

    level = Level.CITY

    def __init__(self, graph: HypothesisGraph) -> None:
        self._graph = graph
        self._low = lowest_bits(graph.active, graph.active_count() // 2)

    @functools.cached_property
    def values(self) -> tuple[str, ...]:
        return tuple(self._graph.spelled_city_names(self._low))

    @functools.cached_property
    def matches(self) -> int:
        g = self._graph
        return (g.namesakes(self._low) & g.active).bit_count()


def rule_menu(graph: HypothesisGraph) -> list[MenuEntry | HalfSpace]:
    """Both rule seekers' question menu.

    A single-value test per casefolded value with an active city at each
    level above city, in (level, value) order, then, with two or more
    candidates, the half-space city-set question. A value is spelled as the
    smallest of its case variants in the dataset, as the question parser
    reads it. The rows are built with the graph, so a turn costs one AND and
    one `bit_count()` per row.
    """
    n = graph.active_count()
    if n == 0:
        raise EmptySpaceError("no active candidates")
    active = graph.active
    menu: list[MenuEntry | HalfSpace] = []
    for level in ATTRIBUTE_LEVELS:
        for values, mask in graph.value_rows(level):
            matches = (active & mask).bit_count()
            if matches:
                menu.append(MenuEntry(level, values, matches))
    if n >= 2:
        menu.append(HalfSpace(graph))
    return menu


def menu_predicate(entry: MenuEntry | HalfSpace) -> Predicate:
    if entry.level is Level.CITY:
        return CityIn(entry.values)
    return AttributeIn(entry.level, entry.values)


def candidate_predicates(graph: HypothesisGraph) -> list[Predicate]:
    """The rule menu as predicates."""
    return [menu_predicate(entry) for entry in rule_menu(graph)]


def _only_city(graph: HypothesisGraph) -> CityGuess:
    (only,) = graph.spelled_city_names(graph.active)
    return CityGuess(only)


def greedy_choose(graph: HypothesisGraph) -> Predicate:
    """Most even split on the rule menu; ties break coarse-first, then by value.

    With one candidate left the only sensible move is to guess it.
    """
    n = graph.active_count()
    if n == 1:
        return _only_city(graph)
    # |matching - non-matching|; 0 is a perfect halving. The menu is in
    # (level, value) order and `min` keeps the first of equal keys.
    best = min(rule_menu(graph), key=lambda e: abs(2 * e.matches - n))
    return menu_predicate(best)


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
        if ctx.graph.active_count() == 1:
            predicate: Predicate = _only_city(ctx.graph)
        else:
            predicate = menu_predicate(ctx.rng.choice(rule_menu(ctx.graph)))
        return SeekerOutput(question_text=predicate.render(), predicate=predicate)


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
            pruned_ids=tuple(eliminated),
        )
