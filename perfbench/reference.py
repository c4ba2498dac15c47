"""The benchmark's own city table and question grammar, kept apart from infoseek.

Everything here is written against the CSV columns and the transcript format,
not against the program's code, so the reference checks and the mock endpoint
compute their answers independently of the system under test.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

LEVELS = ("region", "subregion", "country", "state", "city")
ATTR_LEVELS = LEVELS[:-1]
LEVEL_INDEX = {level: i for i, level in enumerate(LEVELS)}
PREFIX = "Is the target city"

# city_id -> names at (region, subregion, country, state, city)
Table = dict[int, tuple[str, ...]]


def load_table(path) -> Table:
    with open(path, newline="", encoding="utf-8") as handle:
        return {
            int(row["city_id"]): tuple(row[f"{level}_name"].strip() for level in LEVELS)
            for row in csv.DictReader(handle)
        }


@dataclass(frozen=True)
class Pred:
    """A yes/no question: is the city's name at `level` one of `values`?"""

    level: str
    values: tuple[str, ...]
    guess: bool = False

    @cached_property
    def folded(self) -> frozenset[str]:
        return frozenset(v.casefold() for v in self.values)

    def matches(self, names: tuple[str, ...]) -> bool:
        return names[LEVEL_INDEX[self.level]].casefold() in self.folded

    def render(self) -> str:
        vals = join_or(self.values)
        if self.level == "city":
            return f"{PREFIX} {vals}?" if len(self.values) == 1 else f"{PREFIX} one of {vals}?"
        if self.level == "region" and len(self.values) == 1:
            return f"{PREFIX} in {vals}?"
        if len(self.values) == 1:
            return f"{PREFIX}'s {self.level} {vals}?"
        return f"{PREFIX}'s {self.level} one of {vals}?"

    def canonical(self) -> str:
        values = "|".join(sorted(self.values, key=lambda v: (v.casefold(), v)))
        if self.guess:
            return f"guess:{values}"
        return f"cityin:{values}" if self.level == "city" else f"attr:{self.level}:{values}"


def join_or(values) -> str:
    values = list(values)
    return values[0] if len(values) == 1 else f"{', '.join(values[:-1])} or {values[-1]}"


def split_or(text: str) -> tuple[str, ...]:
    head, sep, last = text.rpartition(" or ")
    return (*head.split(", "), last) if sep else (text,)


def parse_question(text: str) -> Pred | None:
    """Read a question in the rendered grammar; "Is the target city X?" is a guess."""
    t = text.strip()
    if not (t.startswith(PREFIX) and t.endswith("?")):
        return None
    rest = t[len(PREFIX):-1]
    if rest.startswith("'s "):
        level, _, vals = rest[3:].partition(" ")
        if level not in ATTR_LEVELS or not vals:
            return None
        return Pred(level, split_or(vals.removeprefix("one of ")))
    rest = rest.strip()
    if rest.startswith("in "):
        return Pred("region", (rest[3:],))
    if rest.startswith("one of "):
        return Pred("city", split_or(rest[7:]))
    return Pred("city", (rest,), guess=True) if rest else None


def parse_canonical(text: str) -> Pred:
    kind, _, rest = text.partition(":")
    if kind == "attr":
        level, _, vals = rest.partition(":")
        return Pred(level, tuple(vals.split("|")))
    if kind in ("cityin", "guess"):
        return Pred("city", tuple(rest.split("|")), guess=kind == "guess")
    raise ValueError(f"unknown predicate {text!r}")


def eliminated(pred: Pred, yes: bool, active, table: Table) -> set[int]:
    """Cities a truthful yes/no answer rules out: yes drops non-matches, no drops matches."""
    return {c for c in active if pred.matches(table[c]) != yes}


def ig(n_before: int, n_after: int) -> float:
    return math.log2(n_before) - math.log2(n_after)


def halving_menu(active, table: Table) -> list[tuple[int, int, str, Pred]]:
    """(imbalance, rank, text, question) for every single-value attribute split
    plus the half-set city list, most even first; one candidate left is a guess."""
    n = len(active)
    if n == 1:
        (only,) = active
        return [(0, 0, "", Pred("city", (table[only][-1],), guess=True))]
    menu = []
    for rank, level in enumerate(ATTR_LEVELS):
        counts = Counter(table[c][rank] for c in active)
        for name, count in counts.items():
            menu.append((abs(2 * count - n), rank, name, Pred(level, (name,))))
    half = tuple(table[c][-1] for c in sorted(active)[: n // 2])
    menu.append((n % 2, len(ATTR_LEVELS), "", Pred("city", half, guess=len(half) == 1)))
    menu.sort(key=lambda item: item[:3])
    return menu


def check_rule_game(
    table: Table, target: int, turns, outcome: str, greedy: bool
) -> str | None:
    """Check one game against the reference; `turns` yields
    (predicate, oracle answer, pruned city ids, recorded ig). None means it passed."""
    active = set(table)
    n_total = len(active)
    total = 0.0
    n_turns = 0
    for pred, answer, pruned, gain in turns:
        n_turns += 1
        yes = pred.matches(table[target])
        if answer != ("Yes" if yes else "No"):
            return f"turn {n_turns}: answer {answer!r} is not the truth"
        expected = eliminated(pred, yes, active, table)
        if set(pruned) != expected:
            return f"turn {n_turns}: pruned {len(pruned)} ids, reference prunes {len(expected)}"
        n_before = len(active)
        active -= expected
        if abs(ig(n_before, len(active)) - gain) > 1e-9:
            return f"turn {n_turns}: recorded ig {gain!r} is not log2({n_before}/{len(active)})"
        if target not in active:
            return f"turn {n_turns}: target pruned"
        total += gain
    if outcome == "win":
        if active != {target}:
            return f"win with {len(active)} cities still active"
        if abs(total - math.log2(n_total)) > 1e-9:
            return f"win totals {total!r} bits, not log2({n_total})"
    if greedy and (outcome != "win" or n_turns > math.ceil(math.log2(n_total)) + 1):
        return f"greedy game: {outcome} after {n_turns} turns"
    return None
