"""Command-line interface: validate data, run batches, replay, analyze, play.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 validation error (bad inputs/files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .agents import (
    AgentFailure,
    Observability,
    RuleOracle,
    RulePruner,
    SeekerContext,
    SeekerOutput,
)
from .dataset import DatasetError, load_dataset
from .engine import (
    OUTCOME_TURN_LIMIT,
    OUTCOME_WIN,
    EngineError,
    GameConfig,
    GameTranscript,
    TurnRecord,
    load_transcript,
    play_game,
    replay,
    save_transcript,
    write_text_atomic,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    export_timeline,
    load_report,
    render_results_table,
    run_experiment,
)
from .llm import WireError
from .metrics import MetricsError
from .questions import PredicateError, QuestionParser
from .taxonomy import GraphError, HypothesisGraph, Level, build_graph
from .trace_analysis import iter_turn_decisions, summarize_decisions

_VALIDATION_ERRORS = (
    DatasetError,
    GraphError,
    ConfigError,
    EngineError,
    PredicateError,
    MetricsError,
    FileNotFoundError,
)


def _stderr(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_validate_data(args: argparse.Namespace) -> int:
    records, manifest = load_dataset(args.csv, top_n=args.top_n)
    graph = build_graph(records)
    by_level = {level: 0 for level in Level}
    for node_id in graph.nodes:
        by_level[node_id.level] += 1
    print(f"source: {manifest.source}")
    print(f"records: {manifest.record_count}")
    print(f"content_hash: {manifest.content_hash}")
    if manifest.top_n is not None:
        print(f"top_n: {manifest.top_n}")
    print("nodes: " + " ".join(f"{level.value}={by_level[level]}" for level in Level))
    print(f"graph_fingerprint: {graph.fingerprint}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)

    done = 0

    def progress(transcript: GameTranscript) -> None:
        nonlocal done
        done += 1
        _stderr(f"[{done}] {transcript.config.target} -> {transcript.outcome}")

    report = run_experiment(cfg, progress=progress if args.verbose else None)
    print(render_results_table([report]), end="")
    if report.failure_count:
        _stderr(f"agent failures: {report.failure_count}")
    if report.fault_summary:
        _stderr(
            "consistency faults: "
            + ", ".join(f"{k}={v}" for k, v in report.fault_summary.items())
        )
    if cfg.output_dir:
        _stderr(f"outputs written under {cfg.output_dir}")
    if report.failure_count == len(report.per_game):
        _stderr(f"runtime failure: all {report.failure_count} games ended in agent_failure")
        return 2
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    transcript = load_transcript(args.transcript)
    records, _ = load_dataset(args.csv)
    graph = build_graph(records)
    metrics = replay(transcript, graph)
    print(
        f"replay ok: outcome={transcript.outcome} turns={metrics.turns} "
        f"total_ig={metrics.total_ig:.4f} ig_per_turn={metrics.ig_per_turn:.4f}"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    paths = sorted(Path(args.transcripts_dir).glob("*.jsonl"))
    if not paths:
        raise DatasetError(f"no .jsonl transcripts in {args.transcripts_dir}")
    records, _ = load_dataset(args.csv)
    graph = build_graph(records)
    decisions = list(iter_turn_decisions(map(load_transcript, paths), graph))
    if args.detail:
        lines = ["game_index,turn_index,chosen_ig,optimal_ig,is_optimal,n_candidates,unparseable"]
        for game_index, decision in decisions:
            if decision is None:
                continue
            lines.append(
                f"{game_index},{decision.turn_index},{decision.chosen_ig!r},"
                f"{decision.optimal_ig!r},{int(decision.is_optimal)},"
                f"{len(decision.candidates)},{decision.unparseable_count}"
            )
        write_text_atomic(args.detail, "\n".join(lines) + "\n")
        _stderr(f"per-turn detail written to {args.detail}")
    report = summarize_decisions(decisions)
    print(f"games: {len(paths)}")
    print(f"turns analyzed: {report.turns_analyzed} (skipped: {report.turns_skipped})")
    print(f"Avg Optimal Rate: {report.avg_optimal_rate}")
    print(f"Avg Chosen IG: {report.avg_chosen_ig}")
    print(f"Avg Optimal IG: {report.avg_optimal_ig}")
    print(f"Avg Questions/Turn: {report.avg_questions_per_turn}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    reports = [load_report(path) for path in args.reports]
    print(render_results_table(reports), end="")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    text = export_timeline(report, path=args.out)
    if args.out:
        _stderr(f"timeline written to {args.out}")
    else:
        print(text, end="")
    return 0


class HumanSeeker:
    """Interactive seeker reading questions from stdin.

    Unreadable input gets a reformulation hint and does not consume a
    turn; 'quit' abandons the session.
    """

    def __init__(self, parser: QuestionParser) -> None:
        self._parser = parser

    def ask(self, ctx: SeekerContext) -> SeekerOutput:
        assert ctx.graph is not None
        if ctx.graph_text is not None:
            print(ctx.graph_text, end="")
        print(f"\nTurn {ctx.turn_index} — {ctx.graph.active_count()} candidates remain.")
        while True:
            try:
                line = input("Your yes/no question (or 'quit'): ").strip()
            except EOFError:
                raise AgentFailure("input closed") from None
            if line.casefold() in ("quit", "exit", "q"):
                raise AgentFailure("player quit")
            if not line:
                continue
            predicate = self._parser.parse(line)
            if predicate is None:
                print(
                    "Couldn't read that as a yes/no question about the target city. "
                    "Try forms like 'Is the target city in Asia?', "
                    "'Is the target city's country one of Japan or India?', "
                    "or 'Is the target city Tokyo?'."
                )
                continue
            return SeekerOutput(question_text=line, predicate=predicate)


def _print_turn(record: TurnRecord, graph: HypothesisGraph) -> None:
    print(
        f"A{record.turn_index}: {record.oracle_answer}   "
        f"(IG {record.metrics.ig:.4f} bits, {graph.active_count()} candidates left)"
    )


def cmd_play(args: argparse.Namespace) -> int:
    records, _ = load_dataset(args.csv)
    graph = build_graph(records)
    cities = sorted(graph.city_leaves, key=lambda i: i.numeric_id)
    if args.target:
        wanted = args.target.strip().casefold()
        matches = [c for c in cities if graph.name_of(c).casefold() == wanted]
        if not matches:
            raise DatasetError(f"no city named {args.target!r} in {args.csv}")
        target = matches[0]
    else:
        target = random.Random(args.seed).choice(cities)

    observability = Observability.FULL if args.fo else Observability.PARTIAL
    cfg = GameConfig(
        target=target,
        max_turns=args.max_turns,
        observability=observability,
        rng_seed=args.seed,
    )
    seeker = HumanSeeker(QuestionParser(graph))
    print(f"A target city has been chosen from {len(cities)} candidates. Go.")
    transcript = play_game(seeker, RuleOracle(), RulePruner(), graph, cfg, on_turn=_print_turn)

    if transcript.outcome == OUTCOME_WIN:
        print(
            f"\nYou got it in {transcript.game_metrics.turns} turn(s): "
            f"{graph.name_of(target)}. Total IG {transcript.game_metrics.total_ig:.4f} bits."
        )
    elif transcript.outcome == OUTCOME_TURN_LIMIT:
        print(f"\nOut of turns! The city was {graph.name_of(target)}.")
    else:
        print("\nSession aborted.")
    if args.save:
        save_transcript(transcript, args.save)
        _stderr(f"transcript saved to {args.save}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="infoseek",
        description="Yes/no information-seeking games over a city taxonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-data", help="load a city CSV, build the graph, print its manifest")
    p.add_argument("csv")
    p.add_argument("--top-n", type=int, default=None, help="keep only the N most populous cities")
    p.set_defaults(func=cmd_validate_data)

    p = sub.add_parser("run", help="run a batch experiment from a JSON config file")
    p.add_argument("config")
    p.add_argument("-v", "--verbose", action="store_true", help="per-game progress on stderr")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="recompute a transcript's metrics against a dataset")
    p.add_argument("transcript")
    p.add_argument("csv")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("analyze", help="decision-quality report over a transcript directory")
    p.add_argument("transcripts_dir")
    p.add_argument("csv")
    p.add_argument("--detail", help="also write a per-turn CSV to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="render one results table from saved report files")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("timeline", help="emit a report's per-turn mean IG as CSV")
    p.add_argument("report")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("play", help="interactive session: you are the seeker")
    p.add_argument("csv")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--target", help="play against this city")
    group.add_argument("--random", action="store_true", help="pick a random target (default)")
    p.add_argument("--seed", type=int, default=0, help="seed for random target choice")
    obs = p.add_mutually_exclusive_group()
    obs.add_argument("--fo", action="store_true", help="show the graph state every turn")
    obs.add_argument("--po", action="store_true", help="dialogue only (default)")
    p.add_argument("--max-turns", type=int, default=30)
    p.add_argument("--save", help="save the session transcript to this path")
    p.set_defaults(func=cmd_play)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        _stderr(f"error: {exc}")
        return 1
    except (WireError, AgentFailure, OSError) as exc:
        _stderr(f"runtime failure: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
