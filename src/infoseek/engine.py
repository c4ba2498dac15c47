"""Turn-based game loop, transcript recording, and deterministic replay.

Every turn runs three phases in order — seeker asks, oracle answers,
pruner eliminates — then entropy is snapshotted. A game ends in a win when
the oracle says game_over and the prune has left only the target active,
at the turn cap, or when an agent fails. Transcripts round-trip through
line-delimited JSON and can be replayed bit-for-bit against the same dataset.
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .agents import (
    AgentFailure,
    Observability,
    Oracle,
    Pruner,
    Seeker,
    SeekerContext,
)
from .codec import decode, encode, field_names
from .metrics import GameMetrics, TurnMetrics, entropy
from .questions import Predicate, QuestionParser
from .taxonomy import GraphError, HypothesisGraph, Level, NodeId, mask_of

SCHEMA_VERSION = 1

OUTCOME_WIN = "win"
OUTCOME_TURN_LIMIT = "turn_limit"
OUTCOME_AGENT_FAILURE = "agent_failure"


class EngineError(Exception):
    pass


class InvalidTargetError(EngineError):
    pass


class FingerprintMismatchError(EngineError):
    pass


class ReplayDivergenceError(EngineError):
    pass


class TranscriptFormatError(EngineError):
    pass


@dataclass(frozen=True)
class GameConfig:
    target: NodeId
    max_turns: int = 30
    observability: Observability = Observability.FULL
    rng_seed: int = 0
    audit: bool = False

    def __post_init__(self) -> None:
        if self.max_turns < 1:
            raise ValueError(f"max_turns must be >= 1, got {self.max_turns}")
        if self.target.level is not Level.CITY:
            raise InvalidTargetError(f"target must be a city: {self.target}")


@dataclass(frozen=True)
class TurnRecord:
    turn_index: int
    question_text: str
    predicate: Predicate | None
    oracle_answer: str
    game_over: bool
    pruned_ids: tuple[NodeId, ...]
    metrics: TurnMetrics
    seeker_trace: str | None = None
    consistency_faults: tuple[str, ...] = ()


@dataclass(frozen=True)
class AuditEvent:
    turn_index: int
    role: str
    payload: str


@dataclass(frozen=True)
class GameTranscript:
    config: GameConfig
    dataset_fingerprint: str
    turns: tuple[TurnRecord, ...]
    outcome: str
    game_metrics: GameMetrics
    audit_events: tuple[AuditEvent, ...] = field(default=(), compare=False)


def _validated_prune(
    pruned_ids: Sequence[NodeId], graph: HypothesisGraph, target: NodeId
) -> tuple[list[NodeId], int, list[str]]:
    """Filter a requested prune to its applicable subset, tagging each fault.

    Unknown, non-city, duplicate/inactive, and target ids are dropped (never
    fatal — an erring pruner shouldn't abort the game or skew entropy).
    Returns the valid ids, their mask, and the faults. Each id is looked up
    once in the graph's bit table; repeats are tracked by bit.
    """
    bit_of = graph.bit_of
    width = len(bit_of)
    active = graph.active.to_bytes((width + 7) // 8, "little")
    seen = bytearray(len(active))
    keep = bytearray(len(active))
    unplaced: set[NodeId] = set()  # ids with no bit, seen so far
    target_bit = bit_of.get(target)
    valid: list[NodeId] = []
    faults: list[str] = []
    for node_id in pruned_ids:
        bit = bit_of.get(node_id)
        if bit is None:
            if node_id in unplaced:
                faults.append(f"already_pruned:{node_id}")
            else:
                unplaced.add(node_id)
                kind = "unknown_id" if node_id not in graph.nodes else "non_city_id"
                faults.append(f"{kind}:{node_id}")
            continue
        byte, flag = bit >> 3, 1 << (bit & 7)
        if seen[byte] & flag or not active[byte] & flag:
            faults.append(f"already_pruned:{node_id}")
        elif bit == target_bit:
            faults.append(f"target_in_prune_set:{node_id}")
        else:
            valid.append(node_id)
            keep[byte] |= flag
        seen[byte] |= flag
    # Unreachable while the target filter holds (the target stays active),
    # but guard anyway: at least one candidate must survive every turn.
    if valid and len(valid) >= graph.active_count():
        faults.append("would_empty_space")
        valid = valid[: graph.active_count() - 1]
        return valid, mask_of((bit_of[i] for i in valid), width), faults
    return valid, int.from_bytes(keep, "little"), faults


def play_game(
    seeker: Seeker,
    oracle: Oracle,
    pruner: Pruner,
    graph: HypothesisGraph,
    cfg: GameConfig,
    on_turn: Callable[[TurnRecord, HypothesisGraph], None] | None = None,
) -> GameTranscript:
    """Run one game to completion on a fresh graph. The graph is consumed."""
    if graph.active_count() != len(graph.city_leaves):
        raise EngineError("graph must be fresh (all cities active)")
    if cfg.target not in graph.city_leaves:
        raise InvalidTargetError(f"target not in this dataset: {cfg.target}")

    rng = random.Random(cfg.rng_seed)
    history: list[tuple[str, str]] = []
    turns: list[TurnRecord] = []
    audit_events: list[AuditEvent] = []
    outcome = OUTCOME_TURN_LIMIT
    parser: QuestionParser | None = None

    for turn_index in range(1, cfg.max_turns + 1):
        n_before = graph.active_count()
        ctx = SeekerContext(
            history=list(history),
            turn_index=turn_index,
            observability=cfg.observability,
            graph=graph,
            rng=rng,
        )
        try:
            question = seeker.ask(ctx)
            if question.predicate is None:
                # A text-only seeker's question, read so rule agents can answer it.
                parser = parser or QuestionParser(graph)
                question = replace(question, predicate=parser.parse(question.question_text))
            answer = oracle.answer(question, cfg.target, graph, tuple(history))
            prune = pruner.prune_decision(question, answer, graph, turn_index)
        except AgentFailure:
            outcome = OUTCOME_AGENT_FAILURE
            break

        valid, mask, faults = _validated_prune(prune.pruned_ids, graph, cfg.target)
        graph.prune_mask(mask)
        # The target is never pruned, so a win is a claim with one city left.
        won = answer.game_over and graph.active_count() == 1
        if answer.game_over and not won:
            faults.append("false_game_over")
        metrics = TurnMetrics.measure(n_before, graph.active_count())
        record = TurnRecord(
            turn_index=turn_index,
            question_text=question.question_text,
            predicate=question.predicate,
            oracle_answer=answer.answer,
            game_over=answer.game_over,
            pruned_ids=tuple(valid),
            metrics=metrics,
            seeker_trace=question.reasoning_trace,
            consistency_faults=tuple(faults),
        )
        turns.append(record)
        history.append((question.question_text, answer.answer))
        if cfg.audit:
            for role, output in (("seeker", question), ("oracle", answer), ("pruner", prune)):
                if output.raw is not None:
                    audit_events.append(AuditEvent(turn_index, role, output.raw))
        if on_turn is not None:
            on_turn(record, graph)
        if won:
            outcome = OUTCOME_WIN
            break

    per_turn = [t.metrics for t in turns]
    if outcome == OUTCOME_AGENT_FAILURE:
        # A failed game counts as a loss at the full turn budget; the failure
        # itself is still visible in the outcome field and batch reports.
        game_metrics = GameMetrics.from_turns(False, per_turn, turns=cfg.max_turns)
    else:
        game_metrics = GameMetrics.from_turns(outcome == OUTCOME_WIN, per_turn)
    return GameTranscript(
        config=cfg,
        dataset_fingerprint=graph.fingerprint,
        turns=tuple(turns),
        outcome=outcome,
        game_metrics=game_metrics,
        audit_events=tuple(audit_events),
    )


def _check_drift(turn: TurnRecord, name: str, recomputed: float) -> None:
    recorded = getattr(turn.metrics, name)
    if abs(recomputed - recorded) > 1e-9:
        raise ReplayDivergenceError(
            f"turn {turn.turn_index} {name}: recorded {recorded!r}, recomputed {recomputed!r}"
        )


def replay_turns(
    transcript: GameTranscript, graph: HypothesisGraph
) -> Iterator[tuple[TurnRecord, HypothesisGraph]]:
    """Walk a transcript on a fresh copy of the graph, checking every turn.

    Yields each turn with the graph as that turn was played on; resuming
    re-applies the turn's recorded prune. Drift beyond 1e-9 from the
    recorded h_before, h_after or ig, or a prune the graph rejects, raises
    ReplayDivergenceError, which makes transcripts tamper-evident.
    """
    if transcript.dataset_fingerprint != graph.fingerprint:
        raise FingerprintMismatchError(
            f"transcript was recorded against {transcript.dataset_fingerprint[:12]}…, "
            f"graph is {graph.fingerprint[:12]}…"
        )
    g = graph.fresh_copy()
    for turn in transcript.turns:
        n_before = g.active_count()
        _check_drift(turn, "h_before", entropy(n_before))
        yield turn, g
        try:
            if turn.pruned_ids:
                g.prune(turn.pruned_ids)
        except GraphError as exc:
            raise ReplayDivergenceError(f"turn {turn.turn_index}: {exc}") from exc
        metrics = TurnMetrics.measure(n_before, g.active_count())
        _check_drift(turn, "h_after", metrics.h_after)
        _check_drift(turn, "ig", metrics.ig)


def replay(transcript: GameTranscript, graph: HypothesisGraph) -> GameMetrics:
    """Re-apply recorded prunes on a fresh copy and check every metric.

    replay_turns checks each turn's metrics against the recomputed entropy;
    the game totals are then summed from them and checked to the same 1e-9.
    """
    per_turn = [turn.metrics for turn, _ in replay_turns(transcript, graph)]
    result = GameMetrics.from_turns(
        transcript.game_metrics.win, per_turn, turns=transcript.game_metrics.turns
    )
    for name in ("total_ig", "ig_per_turn"):
        got = getattr(result, name)
        recorded = getattr(transcript.game_metrics, name)
        if abs(got - recorded) > 1e-9:
            raise ReplayDivergenceError(f"{name}: recorded {recorded!r}, recomputed {got!r}")
    return result


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def transcript_to_jsonl(transcript: GameTranscript) -> str:
    """One self-contained line-delimited document: header, turns, footer.

    Turn rows carry their metrics' fields; the footer carries the game's totals.
    """
    header = {
        "kind": "header",
        "schema_version": SCHEMA_VERSION,
        "dataset_fingerprint": transcript.dataset_fingerprint,
        "config": encode(transcript.config),
    }
    lines = [_dump(header)]
    for turn in transcript.turns:
        row = encode(turn)
        row.update(row.pop("metrics"), kind="turn")
        lines.append(_dump(row))
    lines.extend(_dump({"kind": "audit", **encode(e)}) for e in transcript.audit_events)
    game_metrics = encode(transcript.game_metrics)
    lines.append(
        _dump({"kind": "footer", "outcome": transcript.outcome, "game_metrics": game_metrics})
    )
    return "\n".join(lines) + "\n"


def transcript_from_jsonl(text: str) -> GameTranscript:
    rows: dict[str, list[dict]] = {"header": [], "turn": [], "audit": [], "footer": []}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise TranscriptFormatError(f"line {line_no}: not JSON ({exc})") from None
        kind = row.pop("kind", None) if isinstance(row, dict) else None
        if kind not in rows:
            raise TranscriptFormatError(f"line {line_no}: unknown kind {kind!r}")
        rows[kind].append(row)
    if len(rows["header"]) != 1 or len(rows["footer"]) != 1:
        raise TranscriptFormatError("transcript needs exactly one header and one footer")
    (header,), (footer,) = rows["header"], rows["footer"]
    version = header.pop("schema_version", None)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise TranscriptFormatError(f"unsupported schema_version {version!r}")

    try:
        for row in rows["turn"]:  # its metrics' fields sit in the row
            row["metrics"] = {name: row.pop(name) for name in field_names(TurnMetrics)}
        # Stored totals are loaded verbatim (not recomputed) so that replay
        # can tell a tampered file from a faithful one.
        return decode(
            GameTranscript,
            {**header, **footer, "turns": rows["turn"], "audit_events": rows["audit"]},
        )
    except (KeyError, ValueError, InvalidTargetError) as exc:
        raise TranscriptFormatError(f"bad transcript field: {exc}") from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write through a temporary file in the same directory, then rename it over
    path, so a reader or a crash sees the old file or the new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_transcript(transcript: GameTranscript, path: str | Path) -> None:
    write_text_atomic(path, transcript_to_jsonl(transcript))


def load_transcript(path: str | Path) -> GameTranscript:
    try:
        return transcript_from_jsonl(Path(path).read_text(encoding="utf-8"))
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise TranscriptFormatError(f"{path}: not a file") from exc
