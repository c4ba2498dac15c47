"""Batch orchestration: every city as target × several runs, aggregated.

A run plays one game per (target, run) pair under a bounded worker pool,
persists each transcript and folds it into the report as it finishes: a
results table row and a per-turn gain timeline. No transcript is kept in
memory. Per-game seeds are derived from the base seed so adding targets
never shifts other games' randomness.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, Callable

from .agents import (
    AgentFailure,
    GreedyHalvingSeeker,
    Observability,
    Oracle,
    Pruner,
    RandomSeeker,
    RuleOracle,
    RulePruner,
    Seeker,
)
from .codec import decode, encode
from .dataset import DatasetManifest, load_dataset
from .engine import (
    OUTCOME_AGENT_FAILURE,
    GameConfig,
    GameTranscript,
    play_game,
    save_transcript,
    write_text_atomic,
)
from .llm import EndpointConfig, LLMOracle, LLMPruner, LLMSeeker
from .metrics import AggregateMetrics, GameMetrics, TimelinePoint, TurnMetrics, aggregate, ig_timeline
from .taxonomy import NodeId, build_graph

CONFIG_SCHEMA_VERSION = 1

SEEKER_KINDS = ("greedy", "random", "llm")
ORACLE_KINDS = ("rule", "llm")
PRUNER_KINDS = ("rule", "llm")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class AgentSpec:
    kind: str
    endpoint: EndpointConfig | None = None

    def to_dict(self) -> dict[str, Any]:
        d = encode(self)
        if self.endpoint is None:
            del d["endpoint"]  # a rule agent is written as {"kind": ...}
        return d


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    runs_per_target: int = 3
    max_turns: int = 30
    observability: Observability = Observability.FULL
    seeker: AgentSpec = AgentSpec("greedy")
    oracle: AgentSpec = AgentSpec("rule")
    pruner: AgentSpec = AgentSpec("rule")
    reasoning_enabled: bool = False
    base_seed: int = 0
    parallelism: int = 1
    output_dir: str | None = None
    label: str | None = None
    audit: bool = False
    count_failures_as_losses: bool = True

    def __post_init__(self) -> None:
        if self.runs_per_target < 1:
            raise ConfigError(f"runs_per_target must be >= 1, got {self.runs_per_target}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.max_turns < 1:
            raise ConfigError(f"max_turns must be >= 1, got {self.max_turns}")
        for spec, kinds, role in (
            (self.seeker, SEEKER_KINDS, "seeker"),
            (self.oracle, ORACLE_KINDS, "oracle"),
            (self.pruner, PRUNER_KINDS, "pruner"),
        ):
            if spec.kind not in kinds:
                raise ConfigError(f"unknown {role} kind {spec.kind!r}; expected one of {kinds}")
            if spec.kind == "llm" and spec.endpoint is None:
                raise ConfigError(f"{role} kind 'llm' needs an endpoint")

    def to_dict(self) -> dict[str, Any]:
        return {"schema_version": CONFIG_SCHEMA_VERSION, **encode(self)}

    @classmethod
    def from_dict(cls, d: Any) -> ExperimentConfig:
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        version = d.get("schema_version", CONFIG_SCHEMA_VERSION)
        if type(version) is not int or version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema_version {version!r}")
        try:
            return decode(cls, {k: v for k, v in d.items() if k != "schema_version"})
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> ExperimentConfig:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (IsADirectoryError, NotADirectoryError) as exc:
            raise ConfigError(f"{path}: not a file") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(raw)


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    manifest: DatasetManifest
    per_game: tuple[str, ...]
    aggregate: AggregateMetrics
    timeline: tuple[TimelinePoint, ...]
    fault_summary: dict[str, int]
    failure_count: int


def derived_seed(base_seed: int, target: NodeId, run: int) -> int:
    """Stable per-game seed; independent of target enumeration order."""
    digest = hashlib.sha256(f"{base_seed}|{target}|{run}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def build_agents(cfg: ExperimentConfig) -> tuple[Seeker, Oracle, Pruner]:
    """Instantiate the three roles; one instance each is shared by all games."""

    def llm(agent: Callable[[EndpointConfig, bool], Any], spec: AgentSpec) -> Any:
        assert spec.endpoint is not None  # enforced in ExperimentConfig
        return agent(spec.endpoint, cfg.reasoning_enabled)

    seeker: Seeker
    if cfg.seeker.kind == "greedy":
        seeker = GreedyHalvingSeeker()
    elif cfg.seeker.kind == "random":
        seeker = RandomSeeker()
    else:
        seeker = llm(LLMSeeker, cfg.seeker)
    oracle: Oracle = RuleOracle() if cfg.oracle.kind == "rule" else llm(LLMOracle, cfg.oracle)
    pruner: Pruner = RulePruner() if cfg.pruner.kind == "rule" else llm(LLMPruner, cfg.pruner)
    return seeker, oracle, pruner


def transcript_filename(target: NodeId, run: int) -> str:
    return f"{str(target).replace(':', '-')}_run{run}.jsonl"


def run_experiment(
    cfg: ExperimentConfig,
    progress: Callable[[GameTranscript], None] | None = None,
) -> ExperimentReport:
    records, manifest = load_dataset(cfg.dataset_path)
    base_graph = build_graph(records)
    seeker, oracle, pruner = build_agents(cfg)
    targets = sorted(base_graph.city_leaves, key=lambda i: i.numeric_id)
    jobs = [(target, run) for target in targets for run in range(1, cfg.runs_per_target + 1)]

    transcripts_dir: Path | None = None
    if cfg.output_dir is not None:
        transcripts_dir = Path(cfg.output_dir) / "transcripts"
        transcripts_dir.mkdir(parents=True, exist_ok=True)

    def one_game(target: NodeId, run: int) -> GameTranscript:
        game_cfg = GameConfig(
            target=target,
            max_turns=cfg.max_turns,
            observability=cfg.observability,
            rng_seed=derived_seed(cfg.base_seed, target, run),
            audit=cfg.audit,
        )
        transcript = play_game(seeker, oracle, pruner, base_graph.fresh_copy(), game_cfg)
        if transcripts_dir is not None:
            save_transcript(transcript, transcripts_dir / transcript_filename(target, run))
        return transcript

    failure_count = 0
    fault_summary: Counter[str] = Counter()
    counted: list[GameMetrics] = []
    counted_turns: list[list[TurnMetrics]] = []
    # Games are folded in job order, so finished games wait for the oldest one.
    # At most parallelism × max_turns games are started ahead of the fold: a
    # game plays 1 to max_turns turns, so while one plays its whole budget the
    # other workers finish at most (parallelism - 1) × max_turns one-turn
    # games, and with turns of like cost no worker waits on the fold.
    queued = iter(jobs)
    pool = ThreadPoolExecutor(max_workers=cfg.parallelism)
    try:
        window = cfg.parallelism * cfg.max_turns
        ahead = deque(pool.submit(one_game, *job) for job in islice(queued, window))
        while ahead:
            transcript = ahead.popleft().result()
            ahead.extend(pool.submit(one_game, *job) for job in islice(queued, 1))
            if progress is not None:
                progress(transcript)
            failed = transcript.outcome == OUTCOME_AGENT_FAILURE
            failure_count += failed
            for turn in transcript.turns:
                for fault in turn.consistency_faults:
                    fault_summary[fault.split(":", 1)[0]] += 1
            if cfg.count_failures_as_losses or not failed:
                counted.append(transcript.game_metrics)
                counted_turns.append([r.metrics for r in transcript.turns])
    finally:
        pool.shutdown(cancel_futures=True)  # if a game or `progress` raised, play no more
    if not counted:
        raise AgentFailure(f"all {failure_count} games ended in agent_failure")

    per_game = tuple(
        str(transcripts_dir / transcript_filename(t, r)) if transcripts_dir is not None
        else transcript_filename(t, r)
        for t, r in jobs
    )
    report = ExperimentReport(
        config=cfg,
        manifest=manifest,
        per_game=per_game,
        aggregate=aggregate(counted),
        timeline=tuple(ig_timeline(counted_turns, cfg.max_turns)),
        fault_summary=dict(sorted(fault_summary.items())),
        failure_count=failure_count,
    )
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
        write_text_atomic(out / "config.json", _json_text(cfg.to_dict()))
        save_report(report, out / "report.json")
        export_timeline(report, out / "timeline.csv")
    return report


def _json_text(obj: dict[str, Any]) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_report(report: ExperimentReport, path: str | Path) -> None:
    """Write report.json; its games are their own files, listed in per_game."""
    d = encode(report)
    d["schema_version"] = CONFIG_SCHEMA_VERSION
    d["n_games"] = d["aggregate"].pop("n_games")
    write_text_atomic(path, _json_text(d))


def load_report(path: str | Path) -> ExperimentReport:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: a report must be a JSON object")
        version = raw.pop("schema_version", None)
        if type(version) is not int or version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"{path}: unsupported report schema_version {version!r}")
        raw["aggregate"]["n_games"] = raw.pop("n_games")
        return decode(ExperimentReport, raw)
    except (KeyError, TypeError, ValueError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"{path}: bad report file ({exc})") from exc


def _row_label(cfg: ExperimentConfig) -> str:
    if cfg.label:
        return cfg.label
    if cfg.seeker.kind == "llm" and cfg.seeker.endpoint is not None:
        return cfg.seeker.endpoint.model_name
    return cfg.seeker.kind


TABLE_COLUMNS = ("Model", "Obs.", "CoT", "Win Rate", "Avg Turns", "IG/Turn", "Total IG")


def render_results_table(reports: list[ExperimentReport]) -> str:
    """Plain-text results table, one row per report, metrics as mean ± SE."""
    rows = []
    for report in reports:
        cfg = report.config
        agg = report.aggregate
        rows.append(
            (
                _row_label(cfg),
                cfg.observability.value.upper(),
                "Yes" if cfg.reasoning_enabled else "No",
                str(agg.win_rate),
                str(agg.avg_turns),
                str(agg.ig_per_turn),
                str(agg.total_ig),
            )
        )
    widths = [
        max(len(TABLE_COLUMNS[i]), *(len(r[i]) for r in rows)) if rows else len(TABLE_COLUMNS[i])
        for i in range(len(TABLE_COLUMNS))
    ]
    def fmt(row: tuple[str, ...]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()

    lines = [fmt(TABLE_COLUMNS), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def export_timeline(report: ExperimentReport, path: str | Path | None = None) -> str:
    """Timeline as CSV text (turn_index, mean_ig, n_games); optionally written."""
    lines = ["turn_index,mean_ig,n_games"]
    for point in report.timeline:
        mean = "" if point.mean_ig is None else repr(point.mean_ig)
        lines.append(f"{point.turn_index},{mean},{point.n_games}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        write_text_atomic(path, text)
    return text
