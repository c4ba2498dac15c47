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
from .taxonomy import HypothesisGraph, Level, NodeId, mask_of

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


def _apply_turn(
    graph: HypothesisGraph, target: NodeId, pruned_ids: Sequence[NodeId], game_over: bool
) -> tuple[list[NodeId], list[str], bool, TurnMetrics]:
    """The turn rule that play_game and replay_turns share: apply the valid
    part of the prune to `graph`, then judge the game_over claim. Returns the
    applied ids, the turn's faults, whether it won, and its metrics."""
    n_before = graph.active_count()
    valid, mask, faults = _validated_prune(pruned_ids, graph, target)
    graph.prune_mask(mask)
    n_after = graph.active_count()
    # The target is never pruned, so a win is a claim with one city left.
    won = game_over and n_after == 1
    if game_over and not won:
        faults.append("false_game_over")
    return valid, faults, won, TurnMetrics.measure(n_before, n_after)


def _game_metrics(outcome: str, turns: Sequence[TurnRecord], max_turns: int) -> GameMetrics:
    """The footer rule. A failed game counts as a loss at the full turn budget;
    the failure itself is still visible in the outcome field and batch reports."""
    per_turn = [t.metrics for t in turns]
    if outcome == OUTCOME_AGENT_FAILURE:
        return GameMetrics.from_turns(False, per_turn, turns=max_turns)
    return GameMetrics.from_turns(outcome == OUTCOME_WIN, per_turn)


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

        valid, faults, won, metrics = _apply_turn(
            graph, cfg.target, prune.pruned_ids, answer.game_over
        )
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

    return GameTranscript(
        config=cfg,
        dataset_fingerprint=graph.fingerprint,
        turns=tuple(turns),
        outcome=outcome,
        game_metrics=_game_metrics(outcome, turns, cfg.max_turns),
        audit_events=tuple(audit_events),
    )


def _check_fields(where: str, recorded: object, derived: object) -> None:
    """Raise if a field of `derived` is more than 1e-9 from the recorded one."""
    for name, got in vars(derived).items():
        if abs(got - getattr(recorded, name)) > 1e-9:
            raise ReplayDivergenceError(
                f"{where}{name}: recorded {getattr(recorded, name)!r}, derived {got!r}"
            )


def replay_turns(
    transcript: GameTranscript, graph: HypothesisGraph
) -> Iterator[tuple[TurnRecord, HypothesisGraph]]:
    """Walk a transcript on a fresh copy of the graph, checking every turn.

    Yields each turn with the graph as that turn was played on; resuming
    applies the recorded prune and game_over claim under the engine's turn
    rule. A turn the engine could not have written raises
    ReplayDivergenceError, which makes transcripts tamper-evident: drift
    beyond 1e-9 in h_before, h_after or ig; a prune the validator faults; a
    `false_game_over` fault the claim does not reproduce, or one missing; a
    turn after a win; an outcome of `win` exactly when the last turn did not win.

    A turn's h_before is checked before it is yielded; the rest of it (its
    prune, its claim, h_after and ig) only when the walk resumes, and the
    outcome after the last turn. Trust a yielded turn only once the walk has
    run to its end without raising.
    """
    if transcript.dataset_fingerprint != graph.fingerprint:
        raise FingerprintMismatchError(
            f"transcript was recorded against {transcript.dataset_fingerprint[:12]}…, "
            f"graph is {graph.fingerprint[:12]}…"
        )
    g = graph.fresh_copy()
    target = transcript.config.target
    won = False
    for turn in transcript.turns:
        if won:
            raise ReplayDivergenceError(f"turn {turn.turn_index}: play went on after a win")
        h_before = entropy(g.active_count())
        if abs(h_before - turn.metrics.h_before) > 1e-9:
            raise ReplayDivergenceError(
                f"turn {turn.turn_index} h_before: recorded {turn.metrics.h_before!r}, "
                f"derived {h_before!r}"
            )
        yield turn, g
        _, faults, won, metrics = _apply_turn(g, target, turn.pruned_ids, turn.game_over)
        claimed = ["false_game_over"] if "false_game_over" in turn.consistency_faults else []
        if faults != claimed:
            raise ReplayDivergenceError(
                f"turn {turn.turn_index}: the recorded prune and claim replay with "
                f"faults {faults}, but the transcript records {claimed}"
            )
        _check_fields(f"turn {turn.turn_index} ", turn.metrics, metrics)
    if won != (transcript.outcome == OUTCOME_WIN):
        raise ReplayDivergenceError(
            f"outcome {transcript.outcome!r}, but the last turn "
            f"{'won' if won else 'did not win'}"
        )


def replay(transcript: GameTranscript, graph: HypothesisGraph) -> GameMetrics:
    """Replay every turn, then check each footer field against the footer
    rule: `win` and `turns` exactly, the bits to 1e-9."""
    turns = [turn for turn, _ in replay_turns(transcript, graph)]
    result = _game_metrics(transcript.outcome, turns, transcript.config.max_turns)
    _check_fields("footer ", transcript.game_metrics, result)
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
