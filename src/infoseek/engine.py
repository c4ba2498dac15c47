"""Turn-based game loop, transcript recording, and deterministic replay.

Every turn runs three phases in order — seeker asks, oracle answers,
pruner eliminates — then entropy is snapshotted. A game ends in a win when
the oracle says game_over and the prune has left only the target active,
at the turn cap, or when an agent fails. Transcripts round-trip through
line-delimited JSON and can be replayed bit-for-bit against the same dataset.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
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
from .metrics import GameMetrics, TurnMetrics, entropy
from .questions import Predicate, PredicateError, parse_canonical
from .taxonomy import GraphError, HypothesisGraph, Level, NodeId

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
    game_over_flag: bool
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
) -> tuple[list[NodeId], list[str]]:
    """Filter a requested prune to its applicable subset, tagging each fault.

    Unknown, non-city, duplicate/inactive, and target ids are dropped (never
    fatal — an erring pruner shouldn't abort the game or skew entropy).
    """
    valid: list[NodeId] = []
    faults: list[str] = []
    seen: set[NodeId] = set()
    for node_id in pruned_ids:
        if node_id in seen:
            faults.append(f"already_pruned:{node_id}")
            continue
        seen.add(node_id)
        if node_id not in graph.nodes:
            faults.append(f"unknown_id:{node_id}")
            continue
        if node_id.level is not Level.CITY:
            faults.append(f"non_city_id:{node_id}")
            continue
        if not graph.is_active(node_id):
            faults.append(f"already_pruned:{node_id}")
            continue
        if node_id == target:
            faults.append(f"target_in_prune_set:{node_id}")
            continue
        valid.append(node_id)
    # Unreachable while the target filter holds (the target stays active),
    # but guard anyway: at least one candidate must survive every turn.
    if valid and len(valid) >= graph.active_count():
        faults.append("would_empty_space")
        valid = valid[: graph.active_count() - 1]
    return valid, faults


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

    for turn_index in range(1, cfg.max_turns + 1):
        n_before = graph.active_count()
        graph_text = (
            graph.serialize_state() if cfg.observability is Observability.FULL else None
        )
        ctx = SeekerContext(
            history=list(history),
            turn_index=turn_index,
            graph_text=graph_text,
            graph=graph,
            rng=rng,
        )
        try:
            question = seeker.ask(ctx)
            answer = oracle.answer(question, cfg.target, graph, tuple(history))
            prune = pruner.prune_decision(question, answer, graph, turn_index)
        except AgentFailure:
            outcome = OUTCOME_AGENT_FAILURE
            break

        valid, faults = _validated_prune(prune.pruned_ids, graph, cfg.target)
        if valid:
            graph.prune(valid)
        # The target is never pruned, so a win is a claim with one city left.
        won = answer.game_over and graph.active_count() == 1
        if answer.game_over and not won:
            faults.append("false_game_over")
        metrics = TurnMetrics.measure(turn_index, n_before, graph.active_count())
        record = TurnRecord(
            turn_index=turn_index,
            question_text=question.question_text,
            predicate=question.predicate,
            oracle_answer=answer.answer,
            game_over_flag=answer.game_over,
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
        metrics = TurnMetrics.measure(turn.turn_index, n_before, g.active_count())
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
    """One self-contained line-delimited document: header, turns, footer."""
    cfg = transcript.config
    lines = [
        _dump(
            {
                "kind": "header",
                "schema_version": SCHEMA_VERSION,
                "dataset_fingerprint": transcript.dataset_fingerprint,
                "config": {
                    "target": str(cfg.target),
                    "max_turns": cfg.max_turns,
                    "observability": cfg.observability.value,
                    "rng_seed": cfg.rng_seed,
                    "audit": cfg.audit,
                },
            }
        )
    ]
    for turn in transcript.turns:
        lines.append(
            _dump(
                {
                    "kind": "turn",
                    "turn_index": turn.turn_index,
                    "question_text": turn.question_text,
                    "predicate": turn.predicate.canonical() if turn.predicate else None,
                    "oracle_answer": turn.oracle_answer,
                    "game_over": turn.game_over_flag,
                    "pruned_ids": [str(i) for i in turn.pruned_ids],
                    "h_before": turn.metrics.h_before,
                    "h_after": turn.metrics.h_after,
                    "ig": turn.metrics.ig,
                    "seeker_trace": turn.seeker_trace,
                    "consistency_faults": list(turn.consistency_faults),
                }
            )
        )
    for event in transcript.audit_events:
        lines.append(
            _dump(
                {
                    "kind": "audit",
                    "turn_index": event.turn_index,
                    "role": event.role,
                    "payload": event.payload,
                }
            )
        )
    lines.append(
        _dump(
            {
                "kind": "footer",
                "outcome": transcript.outcome,
                "game_metrics": {
                    "win": transcript.game_metrics.win,
                    "turns": transcript.game_metrics.turns,
                    "total_ig": transcript.game_metrics.total_ig,
                    "ig_per_turn": transcript.game_metrics.ig_per_turn,
                },
            }
        )
    )
    return "\n".join(lines) + "\n"


def transcript_from_jsonl(text: str) -> GameTranscript:
    header: dict | None = None
    footer: dict | None = None
    turn_rows: list[dict] = []
    audit_rows: list[dict] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise TranscriptFormatError(f"line {line_no}: not JSON ({exc})") from None
        kind = row.get("kind")
        if kind == "header":
            if header is not None:
                raise TranscriptFormatError(f"line {line_no}: duplicate header")
            header = row
        elif kind == "turn":
            turn_rows.append(row)
        elif kind == "audit":
            audit_rows.append(row)
        elif kind == "footer":
            if footer is not None:
                raise TranscriptFormatError(f"line {line_no}: duplicate footer")
            footer = row
        else:
            raise TranscriptFormatError(f"line {line_no}: unknown kind {kind!r}")
    if header is None or footer is None:
        raise TranscriptFormatError("transcript needs a header and a footer")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise TranscriptFormatError(
            f"unsupported schema_version {header.get('schema_version')!r}"
        )

    try:
        raw_cfg = header["config"]
        cfg = GameConfig(
            target=NodeId.parse(raw_cfg["target"]),
            max_turns=int(raw_cfg["max_turns"]),
            observability=Observability(raw_cfg["observability"]),
            rng_seed=int(raw_cfg["rng_seed"]),
            audit=bool(raw_cfg["audit"]),
        )
        turns = []
        for row in turn_rows:
            predicate = row["predicate"]
            turns.append(
                TurnRecord(
                    turn_index=int(row["turn_index"]),
                    question_text=row["question_text"],
                    predicate=parse_canonical(predicate) if predicate else None,
                    oracle_answer=row["oracle_answer"],
                    game_over_flag=bool(row["game_over"]),
                    pruned_ids=tuple(NodeId.parse(i) for i in row["pruned_ids"]),
                    metrics=TurnMetrics(
                        turn_index=int(row["turn_index"]),
                        h_before=float(row["h_before"]),
                        h_after=float(row["h_after"]),
                        ig=float(row["ig"]),
                    ),
                    seeker_trace=row.get("seeker_trace"),
                    consistency_faults=tuple(row.get("consistency_faults", ())),
                )
            )
        raw_gm = footer["game_metrics"]
        # Stored totals are loaded verbatim (not recomputed) so that replay
        # can tell a tampered file from a faithful one.
        game_metrics = GameMetrics(
            win=bool(raw_gm["win"]),
            turns=int(raw_gm["turns"]),
            per_turn=tuple(t.metrics for t in turns),
            total_ig=float(raw_gm["total_ig"]),
            ig_per_turn=float(raw_gm["ig_per_turn"]),
        )
        audit_events = tuple(
            AuditEvent(int(r["turn_index"]), r["role"], r["payload"]) for r in audit_rows
        )
        return GameTranscript(
            config=cfg,
            dataset_fingerprint=header["dataset_fingerprint"],
            turns=tuple(turns),
            outcome=footer["outcome"],
            game_metrics=game_metrics,
            audit_events=audit_events,
        )
    except (KeyError, ValueError, TypeError, PredicateError) as exc:
        raise TranscriptFormatError(f"bad transcript field: {exc}") from exc


def save_transcript(transcript: GameTranscript, path: str | Path) -> None:
    Path(path).write_text(transcript_to_jsonl(transcript), encoding="utf-8")


def load_transcript(path: str | Path) -> GameTranscript:
    return transcript_from_jsonl(Path(path).read_text(encoding="utf-8"))
