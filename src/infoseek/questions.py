"""Structured yes/no predicates over the hypothesis space.

Three forms cover every question the rule agents ask:

* ``AttributeIn(level, values)`` — "is the target's <level> one of <values>?"
* ``CityIn(values)``             — "is the target one of these cities?"
* ``CityGuess(name)``            — a direct guess at the answer.

Each predicate has a canonical string form used in transcripts, and two
predicates with the same canonical form render to identical English.
Name matching is case-insensitive; display case is preserved from input.

QuestionParser reads English questions back into predicates; it inverts
render() for every question the rule seekers ask, with one collision: a
one-city CityIn renders the same English as the CityGuess of that city,
so it parses as the guess.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter

from .metrics import information_gain
from .taxonomy import (
    ATTRIBUTE_LEVELS,
    GraphError,
    HypothesisGraph,
    Level,
    NodeId,
    smallest_spellings,
)


class PredicateError(Exception):
    pass


class TargetNotActiveError(GraphError):
    pass


def _normalize_values(values: tuple[str, ...]) -> dict[str, str]:
    """Casefolded value -> its smallest stripped spelling, in casefolded order.

    One spelling per key, so sorting by key is sorting by (casefold, spelling).
    """
    stripped = [v.strip() for v in values]
    if not all(stripped):
        raise PredicateError("empty value in predicate")
    return dict(sorted(smallest_spellings(stripped).items()))


def _join_or(values: tuple[str, ...]) -> str:
    if len(values) == 1:
        return values[0]
    if len(values) == 2:
        return f"{values[0]} or {values[1]}"
    return f"{', '.join(values[:-1])} or {values[-1]}"


@dataclass(frozen=True)
class AttributeIn:
    """Membership test on an ancestor attribute (region through state)."""

    level: Level
    values: tuple[str, ...]
    _folded: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.level not in ATTRIBUTE_LEVELS:
            raise PredicateError(f"attribute questions use region..state, got {self.level.value}")
        if not self.values:
            raise PredicateError("attribute predicate needs at least one value")
        spellings = _normalize_values(tuple(self.values))
        object.__setattr__(self, "values", tuple(spellings.values()))
        object.__setattr__(self, "_folded", frozenset(spellings))

    def matches(self, graph: HypothesisGraph, city_id: NodeId) -> bool:
        return graph.attribute_name(city_id, self.level).casefold() in self._folded

    def mask(self, graph: HypothesisGraph) -> int:
        """The graph's cities this predicate matches, as a mask."""
        return graph.names_mask(self.level, self._folded)

    def canonical(self) -> str:
        return f"attr:{self.level.value}:{'|'.join(self.values)}"

    def render(self) -> str:
        if self.level is Level.REGION and len(self.values) == 1:
            return f"Is the target city in {self.values[0]}?"
        if len(self.values) == 1:
            return f"Is the target city's {self.level.value} {self.values[0]}?"
        return f"Is the target city's {self.level.value} one of {_join_or(self.values)}?"


@dataclass(frozen=True)
class CityIn:
    """Membership test on an explicit set of city names."""

    values: tuple[str, ...]
    _folded: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise PredicateError("city-set predicate needs at least one value")
        spellings = _normalize_values(tuple(self.values))
        object.__setattr__(self, "values", tuple(spellings.values()))
        object.__setattr__(self, "_folded", frozenset(spellings))

    def matches(self, graph: HypothesisGraph, city_id: NodeId) -> bool:
        return graph.attribute_name(city_id, Level.CITY).casefold() in self._folded

    def mask(self, graph: HypothesisGraph) -> int:
        return graph.names_mask(Level.CITY, self._folded)

    def canonical(self) -> str:
        return f"cityin:{'|'.join(self.values)}"

    def render(self) -> str:
        if len(self.values) == 1:
            return f"Is the target city {self.values[0]}?"
        return f"Is the target city one of {_join_or(self.values)}?"


@dataclass(frozen=True)
class CityGuess:
    """Direct guess: correct ends the game, wrong eliminates one city."""

    name: str
    _folded: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name = self.name.strip()
        if not name:
            raise PredicateError("empty guess")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_folded", name.casefold())

    def matches(self, graph: HypothesisGraph, city_id: NodeId) -> bool:
        return graph.attribute_name(city_id, Level.CITY).casefold() == self._folded

    def mask(self, graph: HypothesisGraph) -> int:
        return graph.names_mask(Level.CITY, (self._folded,))

    def canonical(self) -> str:
        return f"guess:{self.name}"

    def render(self) -> str:
        return f"Is the target city {self.name}?"


Predicate = AttributeIn | CityIn | CityGuess


def parse_canonical(text: str) -> Predicate:
    """Inverse of Predicate.canonical(). Raises PredicateError on malformed input."""
    kind, _, rest = text.partition(":")
    if kind == "attr":
        level_text, sep, values_text = rest.partition(":")
        if not sep:
            raise PredicateError(f"malformed attribute predicate: {text!r}")
        try:
            level = Level(level_text)
        except ValueError:
            raise PredicateError(f"unknown level {level_text!r} in {text!r}") from None
        return AttributeIn(level, tuple(values_text.split("|")))
    if kind == "cityin":
        return CityIn(tuple(rest.split("|")))
    if kind == "guess":
        return CityGuess(rest)
    raise PredicateError(f"unknown predicate kind in {text!r}")


_POSSESSIVE_LEVELS = {
    "region": Level.REGION,
    "subregion": Level.SUBREGION,
    "country": Level.COUNTRY,
    "state": Level.STATE,
    "province": Level.STATE,
}

# Longest first so "is the target city" wins over "is the target".
_QUESTION_PREFIXES = (
    "is the target city",
    "is the secret city",
    "is the target",
    "is the city",
    "is your city",
    "is it",
)

_LIST_SPLIT_RE = re.compile(r"\s+(?:or|and)\s+", re.IGNORECASE)


def _split_list(text: str) -> list[str]:
    parts = []
    for chunk in text.split(","):
        for piece in _LIST_SPLIT_RE.split(chunk):
            piece = piece.strip(" \t\"'")
            if piece:
                parts.append(piece)
    return parts


class QuestionParser:
    """Heuristic English-question → predicate parser, bound to one dataset.

    Returns None for anything it cannot read with confidence; a wrong
    guess at semantics would silently corrupt counterfactual scores.
    """

    def __init__(self, graph: HypothesisGraph) -> None:
        # Case variants read as their smallest spelling, as on the rule menu.
        self._values = graph.spellings

    def _displayed(self, level: Level, names: list[str]) -> tuple[str, ...]:
        return tuple(self._values[level].get(n.casefold(), n) for n in names)

    def parse(self, text: str) -> Predicate | None:
        t = text.strip()
        if t.startswith(("attr:", "cityin:", "guess:")):
            try:
                return parse_canonical(t)
            except PredicateError:
                return None
        t = t.strip(" \t\"'").rstrip("?").strip()
        low = t.casefold()
        for prefix in _QUESTION_PREFIXES:
            if low.startswith(prefix):
                rest = t[len(prefix):].strip()
                break
        else:
            return None
        if not rest:
            return None
        rest_low = rest.casefold()

        try:
            if rest_low.startswith("'s "):
                return self._parse_possessive(rest[3:].strip())
            if rest_low.startswith("in "):
                return self._parse_membership(rest[3:].strip())
            if rest_low.startswith("one of "):
                names = _split_list(rest[7:])
                return CityIn(self._displayed(Level.CITY, names)) if names else None
            for marker in ("called ", "named "):
                if rest_low.startswith(marker):
                    return CityGuess(self._displayed(Level.CITY, [rest[len(marker):]])[0])
            return CityGuess(self._displayed(Level.CITY, [rest])[0])
        except PredicateError:
            return None

    def _parse_possessive(self, rest: str) -> Predicate | None:
        word, _, remainder = rest.partition(" ")
        level = _POSSESSIVE_LEVELS.get(word.casefold())
        remainder = remainder.strip()
        if level is None or not remainder:
            return None
        if remainder.casefold().startswith("one of "):
            names = _split_list(remainder[7:])
        elif remainder.casefold().startswith("in "):
            names = _split_list(remainder[3:])
        else:
            names = [remainder]
        if not names:
            return None
        return AttributeIn(level, self._displayed(level, names))

    def _parse_membership(self, rest: str) -> Predicate | None:
        names = _split_list(rest)
        if not names:
            return None
        folded = [n.casefold() for n in names]
        for level in ATTRIBUTE_LEVELS:
            if all(f in self._values[level] for f in folded):
                return AttributeIn(level, self._displayed(level, names))
        if all(f in self._values[Level.CITY] for f in folded):
            return CityIn(self._displayed(Level.CITY, names))
        return None


def prune_set(predicate: Predicate, answer: bool, graph: HypothesisGraph) -> list[NodeId]:
    """Active cities eliminated by hearing `answer` to this predicate, in
    numeric-id order.

    Yes removes the non-matching cities; no removes the matching ones.
    """
    mask = predicate.mask(graph)
    eliminated = graph.cities(graph.active & ~mask if answer else graph.active & mask)
    return sorted(eliminated, key=attrgetter("numeric_id"))


def counterfactual_ig(
    predicate: Predicate, graph: HypothesisGraph, target: NodeId
) -> float:
    """Bits this question would yield against this target. Pure; no mutation.

    A correct guess collapses the space to one candidate, so a guess scores
    the full remaining entropy when right and the one-elimination gain when
    wrong — same arithmetic either way, since the truthful answer leaves
    exactly the matching (or non-matching) candidates standing.
    """
    if not graph.is_active(target):
        raise TargetNotActiveError(f"target not active: {target}")
    mask = predicate.mask(graph)
    kept = graph.active & mask if predicate.matches(graph, target) else graph.active & ~mask
    return information_gain(graph.active_count(), kept.bit_count())
