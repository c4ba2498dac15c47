"""Entropy bookkeeping and result aggregation.

With a uniform prior over N active candidates the entropy is log2(N) bits,
and a turn's information gain is the drop in that entropy. Games aggregate
to mean +/- standard error across runs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence


class MetricsError(Exception):
    pass


class ZeroCandidatesError(MetricsError):
    pass


class InvalidShrinkError(MetricsError):
    pass


class EmptyInputError(MetricsError):
    pass


def entropy(n_candidates: int) -> float:
    """Shannon entropy in bits of a uniform distribution over n candidates."""
    if n_candidates <= 0:
        raise ZeroCandidatesError(f"entropy undefined for {n_candidates} candidates")
    return math.log2(n_candidates)


def information_gain(n_before: int, n_after: int) -> float:
    """Bits gained when the candidate set shrinks from n_before to n_after."""
    if n_after > n_before or n_after <= 0:
        raise InvalidShrinkError(f"invalid candidate shrink: {n_before} -> {n_after}")
    return entropy(n_before) - entropy(n_after)


@dataclass(frozen=True)
class TurnMetrics:
    """Entropy before/after one full turn; ig is exactly their difference."""

    h_before: float
    h_after: float
    ig: float

    @classmethod
    def measure(cls, n_before: int, n_after: int) -> TurnMetrics:
        return cls(
            h_before=entropy(n_before),
            h_after=entropy(n_after),
            ig=information_gain(n_before, n_after),
        )


@dataclass(frozen=True)
class GameMetrics:
    """A game's totals; its per-turn metrics live on its turns."""

    win: bool
    turns: int
    total_ig: float
    ig_per_turn: float

    @classmethod
    def from_turns(
        cls, win: bool, per_turn: Sequence[TurnMetrics], turns: int | None = None
    ) -> GameMetrics:
        if turns is None:
            turns = len(per_turn)
        total = sum(t.ig for t in per_turn)
        return cls(
            win=win,
            turns=turns,
            total_ig=total,
            ig_per_turn=total / turns if turns else 0.0,
        )


@dataclass(frozen=True)
class MeanSE:
    """Sample mean and standard error (stdev/sqrt(n), ddof=1; 0 for n<2)."""

    mean: float
    se: float

    @classmethod
    def of(cls, values: Sequence[float]) -> MeanSE:
        if not values:
            raise EmptyInputError("cannot summarize zero values")
        mean = statistics.fmean(values)
        if len(values) < 2:
            return cls(mean, 0.0)
        return cls(mean, statistics.stdev(values) / math.sqrt(len(values)))

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.se:.2f}"


@dataclass(frozen=True)
class AggregateMetrics:
    n_games: int
    win_rate: MeanSE
    avg_turns: MeanSE
    ig_per_turn: MeanSE
    total_ig: MeanSE


def _group_means(per_game: Sequence[float], groups: Sequence[object]) -> list[float]:
    by_group: dict[object, list[float]] = {}
    for value, group in zip(per_game, groups):
        by_group.setdefault(group, []).append(value)
    return [statistics.fmean(vals) for vals in by_group.values()]


def aggregate(
    games: Sequence[GameMetrics], groups: Sequence[object] | None = None
) -> AggregateMetrics:
    """Summarize many games as mean +/- SE per metric.

    By default each game is one sample. Passing `groups` (one label per
    game, e.g. the target city) first averages within a group so the SE
    reflects between-group spread only.
    """
    if not games:
        raise EmptyInputError("cannot aggregate zero games")
    if groups is not None and len(groups) != len(games):
        raise MetricsError(f"{len(groups)} group labels for {len(games)} games")

    columns: dict[str, list[float]] = {
        "win_rate": [1.0 if g.win else 0.0 for g in games],
        "avg_turns": [float(g.turns) for g in games],
        "ig_per_turn": [g.ig_per_turn for g in games],
        "total_ig": [g.total_ig for g in games],
    }
    summaries = {}
    for name, values in columns.items():
        if groups is not None:
            values = _group_means(values, groups)
        summaries[name] = MeanSE.of(values)
    return AggregateMetrics(n_games=len(games), **summaries)


@dataclass(frozen=True)
class TimelinePoint:
    turn_index: int
    mean_ig: float | None
    n_games: int


def ig_timeline(games: Iterable[Sequence[TurnMetrics]], max_turns: int) -> list[TimelinePoint]:
    """Mean per-turn gain at each turn index, over the games (turn metrics) that reached it."""
    points = []
    all_games = list(games)
    for t in range(1, max_turns + 1):
        igs = [g[t - 1].ig for g in all_games if len(g) >= t]
        points.append(
            TimelinePoint(
                turn_index=t,
                mean_ig=statistics.fmean(igs) if igs else None,
                n_games=len(igs),
            )
        )
    return points
