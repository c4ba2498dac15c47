"""Decision-quality analysis of seeker reasoning traces.

For every turn with a reasoning trace we extract the candidate questions
the seeker weighed, score each one counterfactually (bits it would have
gained against the actual target and the actual graph state before that
turn), and compare the executed question against the best alternative.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .engine import GameTranscript, replay_turns
from .questions import Predicate, QuestionParser, counterfactual_ig
from .taxonomy import HypothesisGraph, NodeId


@dataclass(frozen=True)
class CandidateQuestion:
    text: str
    predicate: Predicate | None = None
    counterfactual_ig: float | None = None
    chosen: bool = False


@dataclass(frozen=True)
class TurnDecision:
    turn_index: int
    candidates: tuple[CandidateQuestion, ...]
    optimal_ig: float
    chosen_ig: float
    is_optimal: bool
    unparseable_count: int


@dataclass(frozen=True)
class MeanStd:
    """Sample mean and standard deviation (ddof=1; 0 for n<2)."""

    mean: float
    std: float

    @classmethod
    def of(cls, values: Sequence[float]) -> MeanStd:
        mean = statistics.fmean(values)
        return cls(mean, statistics.stdev(values) if len(values) >= 2 else 0.0)

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.std:.2f}"


@dataclass(frozen=True)
class DecisionQualityReport:
    avg_optimal_rate: MeanStd
    avg_chosen_ig: MeanStd
    avg_optimal_ig: MeanStd
    avg_questions_per_turn: MeanStd
    turns_analyzed: int
    turns_skipped: int


_SPAN_RE = re.compile(r"[^?]*\?")
_YESNO_START_RE = re.compile(
    r"^(is|are|was|were|does|do|did|has|have|had|can|could|will|would|should|shall|may|might|am)\b",
    re.IGNORECASE,
)
_LEADING_JUNK_RE = re.compile(r"^[\s\"'*\-–—\d.)(:“”‘’]+")


def extract_candidates(trace: str, executed_question: str | None = None) -> list[str]:
    """The yes/no questions in free-form reasoning text, then the executed one.

    Texts are stripped and kept once per casefolded form, first spelling first.
    """
    found = []
    for match in _SPAN_RE.finditer(trace):
        span = match.group().replace("\n", " ")
        variants = [span]
        for splitter in ('"', "“", ":"):
            if splitter in span:
                variants.append(span.rsplit(splitter, 1)[1])
        for variant in variants:
            cleaned = _LEADING_JUNK_RE.sub("", variant).strip()
            if cleaned and _YESNO_START_RE.match(cleaned):
                found.append(cleaned)
                break
    if executed_question:
        found.append(executed_question.strip())
    unique: dict[str, str] = {}
    for text in found:
        unique.setdefault(text.casefold(), text)
    return list(unique.values())


def score_turn(
    candidate_texts: Sequence[str],
    graph: HypothesisGraph,
    target: NodeId,
    parser: QuestionParser,
    turn_index: int,
    executed_question: str,
    realized_ig: float | None = None,
) -> TurnDecision | None:
    """Score one turn's candidates; None means nothing was scorable.

    The executed question falls back to its realized gain when its text
    does not parse — it actually ran, so its value is known either way.
    """
    executed_fold = executed_question.strip().casefold()
    candidates = []
    unparseable = 0
    for text in candidate_texts:
        predicate = parser.parse(text)
        ig = counterfactual_ig(predicate, graph, target) if predicate is not None else None
        if predicate is None:
            unparseable += 1
        candidates.append(
            CandidateQuestion(
                text=text,
                predicate=predicate,
                counterfactual_ig=ig,
                chosen=text.strip().casefold() == executed_fold,
            )
        )
    if unparseable == len(candidates):
        return None
    chosen = next((c for c in candidates if c.chosen), None)
    if chosen is None:
        return None
    chosen_ig = chosen.counterfactual_ig if chosen.counterfactual_ig is not None else realized_ig
    if chosen_ig is None:
        return None
    scored = [c.counterfactual_ig for c in candidates if c.counterfactual_ig is not None]
    optimal_ig = max([*scored, chosen_ig])
    return TurnDecision(
        turn_index=turn_index,
        candidates=tuple(candidates),
        optimal_ig=optimal_ig,
        chosen_ig=chosen_ig,
        is_optimal=chosen_ig >= optimal_ig - 1e-9,
        unparseable_count=unparseable,
    )


def iter_turn_decisions(
    transcripts: Iterable[GameTranscript],
    graph: HypothesisGraph,
    parser: QuestionParser | None = None,
) -> Iterator[tuple[int, TurnDecision | None]]:
    """(game index, decision-or-None) per turn, walking each game's graph state.

    None marks a skipped turn (no trace, or nothing scorable).
    """
    parser = parser or QuestionParser(graph)
    for game_index, transcript in enumerate(transcripts):
        for turn, g in replay_turns(transcript, graph):
            decision = None
            if turn.seeker_trace:
                decision = score_turn(
                    extract_candidates(turn.seeker_trace, turn.question_text),
                    g,
                    transcript.config.target,
                    parser,
                    turn.turn_index,
                    turn.question_text,
                    realized_ig=turn.metrics.ig,
                )
            yield game_index, decision


def decision_quality(
    transcripts: Iterable[GameTranscript],
    graph: HypothesisGraph,
    parser: QuestionParser | None = None,
) -> DecisionQualityReport:
    """Score every turn of every transcript, then summarize."""
    return summarize_decisions(iter_turn_decisions(transcripts, graph, parser))


def summarize_decisions(
    decisions: Iterable[tuple[int, TurnDecision | None]],
) -> DecisionQualityReport:
    """Aggregate per-turn decisions into per-game means, then mean ± std."""
    by_game: dict[int, list[TurnDecision]] = {}
    analyzed = 0
    skipped = 0
    for game_index, decision in decisions:
        if decision is None:
            skipped += 1
        else:
            analyzed += 1
            by_game.setdefault(game_index, []).append(decision)

    if not by_game:
        zero = MeanStd(0.0, 0.0)
        return DecisionQualityReport(zero, zero, zero, zero, 0, skipped)

    rates, chosens, optimals, counts = [], [], [], []
    for decisions in by_game.values():
        rates.append(statistics.fmean(1.0 if d.is_optimal else 0.0 for d in decisions))
        chosens.append(statistics.fmean(d.chosen_ig for d in decisions))
        optimals.append(statistics.fmean(d.optimal_ig for d in decisions))
        counts.append(statistics.fmean(len(d.candidates) for d in decisions))
    return DecisionQualityReport(
        avg_optimal_rate=MeanStd.of(rates),
        avg_chosen_ig=MeanStd.of(chosens),
        avg_optimal_ig=MeanStd.of(optimals),
        avg_questions_per_turn=MeanStd.of(counts),
        turns_analyzed=analyzed,
        turns_skipped=skipped,
    )
