"""Span tracing of infoseek from outside the package, and the per-layer metrics.

`install` replaces public functions and methods of each infoseek module with
wrappers that record a span: id, name, start, end, parent span and game id.
Each function is patched where its caller looks it up: a module-level
function in every infoseek module namespace that binds it (agents calls its
own global `greedy_choose`), a method on its class (engine calls
`graph.serialize_state()`). Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

NAN = float("nan")


class Tracer:
    """Spans in columns: an analyze run records over a million of them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # span index, -1 for none
        self.game = array("q")  # 0 for none
        self.value = array("d")  # NaN for none
        self.extra: dict[int, tuple] = {}  # tuple values, by span index
        self._lock = threading.Lock()
        self._games = itertools.count(1)
        self._local = threading.local()
        # Spans whose work continues on pool threads (run_experiment); a span
        # opened on a thread with nothing open becomes their child.
        self._adopters: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn, name: str, new_game: bool = False, adopt: bool = False, value=None):
        tracer = self
        clock = time.perf_counter
        name_ix = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            adopters = tracer._adopters
            parent = stack[-1] if stack else (adopters[-1] if adopters else -1)
            game = tracer.game[parent] if parent >= 0 else 0
            if game == 0 and new_game:
                game = next(tracer._games)
            with tracer._lock:
                i = len(tracer.start)
                tracer.name.append(name_ix)
                tracer.start.append(0.0)
                tracer.end.append(0.0)
                tracer.parent.append(parent)
                tracer.game.append(game)
                tracer.value.append(NAN)
            stack.append(i)
            if adopt:
                adopters.append(i)
            tracer.start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
                if adopt:
                    adopters.remove(i)
            if value is not None:
                v = value(result)
                if isinstance(v, tuple):
                    tracer.extra[i] = v
                else:
                    tracer.value[i] = v
            return result

        return traced

    def write(self, path: Path) -> None:
        """One CSV line per span; `value` is the wrapper's figure (size, turns...)."""
        with path.open("w", encoding="utf-8") as out:
            out.write("id,name,start,end,parent,game,value\n")
            for i in range(len(self)):
                value = self.extra.get(i, self.value[i])
                if isinstance(value, tuple):
                    value = "|".join(map(str, value))
                elif math.isnan(value):
                    value = ""
                parent = self.parent[i]
                out.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                          f"{'' if parent < 0 else parent},{self.game[i] or ''},{value}\n")


def _http_value(response) -> tuple[int, int, float | None]:
    body = response.request.body or b""
    service = response.headers.get("X-Mock-Service-Ms")
    return len(body), len(response.content), None if service is None else float(service)


def install(tracer: Tracer) -> None:
    """Patch every traced function of infoseek (and the HTTP call it makes)."""
    import requests

    from infoseek import agents, dataset, engine, experiment, llm, metrics, questions, taxonomy
    from infoseek import trace_analysis

    modules = (dataset, taxonomy, questions, metrics, agents, llm, engine, experiment,
               trace_analysis)

    def function(module, attr: str, **kw) -> None:
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, f"{module.__name__.split('.')[-1]}.{attr}", **kw)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapped)

    def method(cls, attr: str, span: str, **kw) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, span, **kw)))
        else:
            setattr(cls, attr, tracer.wrap(raw, span, **kw))

    function(dataset, "load_dataset")
    function(dataset, "load_csv")
    function(taxonomy, "build_graph")
    graph = taxonomy.HypothesisGraph
    method(graph, "serialize_state", "taxonomy.serialize_state", value=len)
    method(graph, "fresh_copy", "taxonomy.fresh_copy")
    method(graph, "prune", "taxonomy.prune")
    function(questions, "prune_set")
    function(questions, "counterfactual_ig")
    function(questions, "parse_canonical")
    function(agents, "greedy_choose")
    function(agents, "candidate_predicates")
    for cls in (agents.GreedyHalvingSeeker, agents.RandomSeeker, llm.LLMSeeker):
        method(cls, "ask", "agents.seeker")
    method(agents.RuleOracle, "answer", "agents.rule_oracle")
    method(agents.RulePruner, "prune_decision", "agents.rule_pruner")
    method(llm.LLMOracle, "answer", "agents.llm_oracle")
    method(llm.LLMPruner, "prune_decision", "agents.llm_pruner")
    method(metrics.TurnMetrics, "measure", "metrics.turn_measure")
    function(metrics, "aggregate")
    function(metrics, "ig_timeline")
    function(engine, "play_game", new_game=True, value=lambda t: len(t.turns))
    function(engine, "replay", new_game=True)
    function(engine, "transcript_to_jsonl", value=len)
    function(engine, "transcript_from_jsonl")
    function(engine, "save_transcript")
    function(engine, "load_transcript")
    function(experiment, "run_experiment", adopt=True)
    function(experiment, "build_agents")
    function(experiment, "save_report")
    function(llm, "complete")
    for attr in ("build_seeker_messages", "build_oracle_messages", "build_pruner_messages"):
        function(llm, attr)
    function(llm, "parse_oracle_json")
    function(llm, "parse_pruner_json")
    # llm looks up `requests.post` on the requests module for every attempt.
    requests.post = tracer.wrap(requests.post, "http.post", value=_http_value)
    parser = trace_analysis.QuestionParser
    method(parser, "__init__", "trace_analysis.parser_build")
    method(parser, "parse", "trace_analysis.parse", value=lambda p: p is not None)
    function(trace_analysis, "extract_candidates", value=len)
    function(trace_analysis, "score_turn")
    function(trace_analysis, "decision_quality", new_game=True,
             value=lambda r: r.turns_analyzed + r.turns_skipped)


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(t: Tracer, window_s: float, mock_stats) -> dict:
    """Per-layer figures; 0 where a workload skips the layer."""
    by = defaultdict(list)
    for i, name_ix in enumerate(t.name):
        by[t.names[name_ix]].append(i)

    def durations(*names: str) -> list[float]:
        return [t.end[i] - t.start[i] for n in names for i in by[n]]

    def med(*names: str, scale: float = 1e6) -> float:
        values = durations(*names)
        return statistics.median(values) * scale if values else 0.0

    def total(name: str) -> float:
        return sum(t.value[i] for i in by[name])

    def mean_value(name: str, scale: float = 1.0) -> float:
        return total(name) / len(by[name]) * scale if by[name] else 0.0

    def self_times(name: str) -> list[float]:
        """Duration of each span minus the part of it its child spans cover."""
        children = {i: [] for i in by[name]}
        for i, parent in enumerate(t.parent):
            if parent in children:
                children[parent].append((t.start[i], t.end[i]))
        out = []
        for i, kids in children.items():
            covered, reach = 0.0, t.start[i]
            for start, end in sorted(kids):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(t.end[i] - t.start[i] - covered)
        return out

    games = len(by["engine.play_game"])
    turns = total("engine.play_game")
    per_game = {n: len(by[n]) / games if games else 0.0
                for n in ("taxonomy.serialize_state", "questions.prune_set", "http.post")}
    http = [t.extra[i] for i in by["http.post"]]  # (request bytes, response bytes, service ms)
    http_ms = [d * 1e3 for d in durations("http.post")]
    client = [ms - service for ms, (_, _, service) in zip(http_ms, http) if service is not None]
    complete_ms = [d * 1e3 for d in durations("llm.complete")]
    run_self = self_times("experiment.run_experiment")
    analysed_turns = total("trace_analysis.decision_quality")
    connections, requests = mock_stats or (0, 0)
    return {
        "dataset.load_ms": med("dataset.load_dataset", scale=1e3),
        "taxonomy.build_graph_ms": med("taxonomy.build_graph", scale=1e3),
        "taxonomy.fresh_copy_ms": med("taxonomy.fresh_copy", scale=1e3),
        "taxonomy.serialize_state_us": med("taxonomy.serialize_state"),
        "taxonomy.serialize_state_calls_per_game": per_game["taxonomy.serialize_state"],
        "taxonomy.graph_text_kb": mean_value("taxonomy.serialize_state", 1 / 1024),
        "taxonomy.prune_us": med("taxonomy.prune"),
        "questions.prune_set_us": med("questions.prune_set"),
        "questions.prune_set_calls_per_game": per_game["questions.prune_set"],
        "questions.counterfactual_ig_us": med("questions.counterfactual_ig"),
        "questions.parse_canonical_us": med("questions.parse_canonical"),
        "agents.greedy_choose_us": med("agents.greedy_choose"),
        "agents.candidate_predicates_us": med("agents.candidate_predicates"),
        "agents.rule_oracle_us": med("agents.rule_oracle"),
        "agents.rule_pruner_us": med("agents.rule_pruner"),
        "metrics.turn_measure_us": med("metrics.turn_measure"),
        "metrics.aggregate_ms": med("metrics.aggregate", scale=1e3),
        "metrics.ig_timeline_ms": med("metrics.ig_timeline", scale=1e3),
        "engine.turn_self_us": sum(self_times("engine.play_game")) / turns * 1e6 if turns else 0.0,
        "engine.turns_per_game": turns / games if games else 0.0,
        "engine.to_jsonl_us": med("engine.transcript_to_jsonl"),
        "engine.transcript_kb": mean_value("engine.transcript_to_jsonl", 1 / 1024),
        "engine.from_jsonl_us": med("engine.transcript_from_jsonl"),
        "engine.replay_us": med("engine.replay"),
        "experiment.run_self_ms": statistics.median(run_self) * 1e3 if run_self else 0.0,
        "experiment.save_transcript_us": med("engine.save_transcript"),
        "experiment.save_report_ms": med("experiment.save_report", scale=1e3),
        "llm.complete_ms_p50": _pct(complete_ms, 50),
        "llm.complete_ms_p90": _pct(complete_ms, 90),
        "llm.client_ms_p50": _pct(client, 50),
        "llm.build_messages_us": med(
            "llm.build_seeker_messages", "llm.build_oracle_messages", "llm.build_pruner_messages"
        ),
        "llm.parse_reply_us": med("llm.parse_oracle_json", "llm.parse_pruner_json"),
        "llm.requests_per_game": per_game["http.post"],
        "llm.attempts_per_call": len(http) / len(by["llm.complete"]) if http else 0.0,
        "llm.connections_per_request": connections / requests if requests else 0.0,
        "llm.request_kb": statistics.fmean(h[0] for h in http) / 1024 if http else 0.0,
        "llm.response_kb": statistics.fmean(h[1] for h in http) / 1024 if http else 0.0,
        "llm.inflight_mean": sum(http_ms) / 1e3 / window_s,
        "trace_analysis.parser_build_ms": med("trace_analysis.parser_build", scale=1e3),
        "trace_analysis.ms_per_turn": sum(durations("trace_analysis.decision_quality"))
        / analysed_turns * 1e3 if analysed_turns else 0.0,
        "trace_analysis.extract_us": med("trace_analysis.extract_candidates"),
        "trace_analysis.parse_us": med("trace_analysis.parse"),
        "trace_analysis.score_turn_us": med("trace_analysis.score_turn"),
        "trace_analysis.candidates_per_turn": mean_value("trace_analysis.extract_candidates"),
        "trace_analysis.parsed_per_extracted": mean_value("trace_analysis.parse"),
    }
