"""infoseek benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S    # every workload, one process each

A run generates its inputs from the seed, times the program's set-up, then
plays whole rounds of operations until the program has worked for S seconds,
checking every output against the benchmark's own reference (see README.md).
The last line of stdout is the result as JSON; `--trace 1` reports per-layer
figures from spans instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "bench-out"
BUNDLED = ROOT / "src" / "infoseek" / "data" / "top_40_pop_cities.csv"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from infoseek import dataset, engine, experiment, taxonomy, trace_analysis  # noqa: E402
from infoseek.agents import Observability  # noqa: E402
from infoseek.experiment import AgentSpec, ExperimentConfig  # noqa: E402
from infoseek.llm import EndpointConfig  # noqa: E402

import gen  # noqa: E402
import mock_llm  # noqa: E402
import tracer as tracing  # noqa: E402
from reference import check_rule_game, load_table, parse_canonical, parse_question  # noqa: E402

WORKLOADS = ("sweep40", "synth4k", "llm-triad", "analyze")
# game_ms_p90 needs at least ten operations beyond it; a slow round may run past --seconds.
MIN_OPERATIONS = 100
clock = time.perf_counter


class Incorrect(Exception):
    """An output disagreed with the reference."""


def city(numeric_id: int) -> taxonomy.NodeId:
    return taxonomy.NodeId(taxonomy.Level.CITY, numeric_id)


def rule_turns(transcript):
    for t in transcript.turns:
        yield (parse_canonical(t.predicate.canonical()), t.oracle_answer,
               [i.numeric_id for i in t.pruned_ids], t.metrics.ig)


class Workload:
    """One set of inputs: `setup` is timed on its own, `round` is one timed batch
    of operations returning (seconds, output) per operation, `check` returns
    the number of operations that failed in a known way and raises on any other
    disagreement."""

    setup_reps = 31

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.rng = random.Random(f"{type(self).__name__}|{seed}")

    def prepare(self) -> None: ...

    def setup(self) -> None: ...

    def round(self, r: int) -> list: ...

    def check(self, results: list) -> int:
        return 0

    def finish(self) -> None: ...

    def close(self) -> None: ...

    def mock_stats(self):
        return None


class Sweep40(Workload):
    """Greedy and random seekers, fo and po, the bundled 40 cities, through
    run_experiment with transcripts written; every transcript is then loaded
    and replayed."""

    SWEEP = (("greedy", "fo"), ("greedy", "po"), ("random", "fo"), ("random", "po"))

    def prepare(self) -> None:
        self.table = load_table(BUNDLED)
        # Each round writes a fresh output_dir and deletes it once checked:
        # rewriting the same files made each close wait on the disk.
        shutil.rmtree(self.work, ignore_errors=True)
        # Per-game wall time: play_game start to save_transcript end (parallelism 1).
        self.starts: list[float] = []
        self.ends: list[float] = []
        play, save = experiment.play_game, experiment.save_transcript

        def timed_play(*args, **kwargs):
            self.starts.append(clock())
            return play(*args, **kwargs)

        def timed_save(*args, **kwargs):
            save(*args, **kwargs)
            self.ends.append(clock())

        experiment.play_game, experiment.save_transcript = timed_play, timed_save

    def configs(self, r: int) -> list[ExperimentConfig]:
        return [
            ExperimentConfig(
                dataset_path=str(BUNDLED), runs_per_target=1, observability=Observability(obs),
                seeker=AgentSpec(kind), base_seed=self.seed * 1000 + r, parallelism=1,
                output_dir=str(self.work / f"round{r}" / f"{kind}-{obs}"), label=f"{kind}-{obs}",
            )
            for kind, obs in self.SWEEP
        ]

    def setup(self) -> None:
        records, _ = dataset.load_dataset(BUNDLED)
        self.graph = taxonomy.build_graph(records)
        for cfg in self.configs(0):
            experiment.build_agents(cfg)

    def round(self, r: int) -> list:
        results = []
        for cfg in self.configs(r):
            self.starts.clear()
            self.ends.clear()
            report = experiment.run_experiment(cfg)
            for path, start, end in zip(report.per_game, self.starts, self.ends, strict=True):
                t0 = clock()
                engine.replay(engine.load_transcript(path), self.graph)
                results.append((end - start + clock() - t0, (cfg.seeker.kind, path)))
        return results

    def check(self, results: list) -> int:
        for _, (kind, path) in results:
            rows = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
            target = int(rows[0]["config"]["target"].split(":")[1])
            turns = [(parse_canonical(t["predicate"]), t["oracle_answer"],
                      [int(i.split(":")[1]) for i in t["pruned_ids"]], t["ig"])
                     for t in rows if t["kind"] == "turn"]
            problem = check_rule_game(self.table, target, turns, rows[-1]["outcome"],
                                      greedy=kind == "greedy")
            if problem:
                raise Incorrect(f"{path}: {problem}")
        shutil.rmtree(Path(path).parents[2])
        return 0


class Synth4k(Workload):
    """Greedy and random seekers under po on a seeded 3,840-city taxonomy, on a
    sample of targets, with no transcripts written.

    Equal fan-outs make every city equivalent and the names sort like the ids,
    so the batch of games (targets and the random seeker's seeds) is drawn the
    same way for every seed: each seed then plays the same games under other
    names. Every round replays that batch, so a run's figures do not hang on
    which games its last rounds drew: a random game takes 10 to 30 turns and
    from 0.1 to 0.65 s, and one more or one fewer of the slow ones moved
    `game_ms_p90` and `games_per_s` between runs by more than their bounds.
    """

    FANOUTS = (4, 4, 4, 4, 15)
    PER_ROUND = (("greedy", 4), ("random", 1))
    setup_reps = 7

    def prepare(self) -> None:
        self.csv = self.work / "synth4k.csv"
        gen.write_taxonomy(self.csv, self.seed, self.FANOUTS)
        self.table = load_table(self.csv)
        ids = sorted(self.table)
        rng = random.Random("synth4k games")
        self.batch = [(kind, target, rng.getrandbits(32))
                      for kind, n in self.PER_ROUND for target in rng.sample(ids, n)]

    def setup(self) -> None:
        records, _ = dataset.load_dataset(self.csv)
        self.graph = taxonomy.build_graph(records)
        self.agents = {
            kind: experiment.build_agents(ExperimentConfig(
                dataset_path=str(self.csv), observability=Observability.PARTIAL,
                seeker=AgentSpec(kind)))
            for kind, _ in self.PER_ROUND
        }

    def round(self, r: int) -> list:
        results = []
        for kind, target, seed in self.batch:
            t0 = clock()
            transcript = engine.play_game(
                *self.agents[kind], self.graph.fresh_copy(),
                engine.GameConfig(target=city(target), observability=Observability.PARTIAL,
                                  rng_seed=seed))
            results.append((clock() - t0, (kind, target, transcript)))
        return results

    def check(self, results: list) -> int:
        for _, (kind, target, transcript) in results:
            problem = check_rule_game(self.table, target, rule_turns(transcript),
                                      transcript.outcome, greedy=kind == "greedy")
            if problem:
                raise Incorrect(f"{kind} game on city:{target}: {problem}")
        return 0


class LlmTriad(Workload):
    """LLM agents against the mock endpoint at parallelism 2: (a) the paper's
    all-LLM triad under fo and po with reasoning and audit on; (b) the README's
    LLM seeker with the rule oracle and rule pruner."""

    DELAY_MS = 20
    SLICES = (("a", "fo", 3), ("a", "po", 3), ("b", "fo", 2))
    PARALLELISM = 2

    def prepare(self) -> None:
        self.mock = subprocess.Popen(
            [sys.executable, str(HERE / "mock_llm.py"), str(BUNDLED),
             "--delay-ms", str(self.DELAY_MS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.port = int(self.mock.stdout.readline())
        self.table = load_table(BUNDLED)
        self.plans = {t: len(mock_llm.plan(self.table, t)) for t in self.table}
        # Slice (a) plays only targets whose plan has the most common length, so
        # every round does the same work and the median game is not a draw
        # between a 6-turn and a 7-turn cluster.
        lengths = sorted(self.plans.values())
        common = max(set(lengths), key=lengths.count)
        self.targets = {"a": sorted(t for t, n in self.plans.items() if n == common),
                        "b": sorted(self.table)}
        self.pool = ThreadPoolExecutor(self.PARALLELISM)

    def configs(self) -> dict[tuple[str, str], ExperimentConfig]:
        def llm(think: bool) -> AgentSpec:
            return AgentSpec("llm", EndpointConfig(
                base_url=f"http://127.0.0.1:{self.port}/v1", model_name="mock", timeout=30.0,
                reasoning_suffix=f"\n{mock_llm.THINK_MARKER}" if think else None))

        return {
            (part, obs): ExperimentConfig(
                dataset_path=str(BUNDLED), observability=Observability(obs),
                seeker=llm(part == "a"),
                oracle=llm(False) if part == "a" else AgentSpec("rule"),
                pruner=llm(False) if part == "a" else AgentSpec("rule"),
                reasoning_enabled=part == "a", audit=part == "a", parallelism=self.PARALLELISM)
            for part, obs, _ in self.SLICES
        }

    def setup(self) -> None:
        records, _ = dataset.load_dataset(BUNDLED)
        self.graph = taxonomy.build_graph(records)
        self.cfgs = self.configs()
        self.agents = {key: experiment.build_agents(cfg) for key, cfg in self.cfgs.items()}

    def _play(self, job):
        part, obs, target, seed = job
        cfg = self.cfgs[part, obs]
        t0 = clock()
        transcript = engine.play_game(
            *self.agents[part, obs], self.graph.fresh_copy(),
            engine.GameConfig(target=city(target), observability=cfg.observability,
                              rng_seed=seed, audit=cfg.audit))
        return clock() - t0, (part, target, transcript)

    def round(self, r: int) -> list:
        jobs = [(part, obs, target, self.rng.getrandbits(32))
                for part, obs, n in self.SLICES for target in self.rng.sample(self.targets[part], n)]
        return list(self.pool.map(self._play, jobs))

    def _game_problem(self, target: int, transcript) -> str | None:
        turns = []
        for t in transcript.turns:
            pred = parse_question(t.question_text)
            if pred is None:
                return f"turn {t.turn_index}: question outside the grammar: {t.question_text!r}"
            turns.append((pred, t.oracle_answer, [i.numeric_id for i in t.pruned_ids], t.metrics.ig))
        if transcript.outcome != "win":
            return f"outcome {transcript.outcome}"
        if len(turns) != self.plans[target]:
            return f"{len(turns)} turns, the mock's plan takes {self.plans[target]}"
        return check_rule_game(self.table, target, turns, transcript.outcome, greedy=False)

    def check(self, results: list) -> int:
        failed = 0
        for _, (part, target, transcript) in results:
            problem = self._game_problem(target, transcript)
            if part == "a" and problem is None:
                n = len(transcript.turns)
                if not all(t.seeker_trace for t in transcript.turns):
                    problem = "a turn lost its reasoning trace"
                elif len(transcript.audit_events) != 3 * n:
                    problem = f"{len(transcript.audit_events)} audit events for {n} turns"
            if problem is None:
                continue
            # The known fault: the rule oracle cannot read an LLM seeker's question
            # (it sends no predicate), so the game idles to the turn cap at 0 bits.
            idle = (transcript.outcome == "turn_limit" and transcript.game_metrics.total_ig == 0
                    and all(t.oracle_answer not in ("Yes", "No") for t in transcript.turns))
            if part == "b" and idle:
                failed += 1
                continue
            raise Incorrect(f"slice ({part}) game on city:{target}: {problem}")
        return failed

    def mock_stats(self):
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            stats = json.load(resp)
        return stats["connections"], stats["requests"]

    def close(self) -> None:
        if hasattr(self, "pool"):
            self.pool.shutdown()
        if hasattr(self, "mock"):
            self.mock.stdin.close()
            try:
                self.mock.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.mock.kill()
                self.mock.wait()
            self.mock.stdout.close()


class Analyze(Workload):
    """load_transcript + decision_quality, one transcript per operation, over a
    seeded corpus written by the benchmark (schema v1, 40 cities)."""

    GAMES = 200

    def prepare(self) -> None:
        self.corpus = gen.write_corpus(self.work / "corpus", self.seed, BUNDLED, self.GAMES)
        self.rng.shuffle(self.corpus)

    def setup(self) -> None:
        records, _ = dataset.load_dataset(BUNDLED)
        self.graph = taxonomy.build_graph(records)
        self.parser = trace_analysis.QuestionParser(self.graph)

    def round(self, r: int) -> list:
        results = []
        for game in self.corpus:
            t0 = clock()
            report = trace_analysis.decision_quality(
                [engine.load_transcript(game["path"])], self.graph, parser=self.parser)
            results.append((clock() - t0, (game, report)))
        return results

    def check(self, results: list) -> int:
        for _, (game, report) in results:
            d = game["decisions"]
            want = (len(d), game["turns"] - len(d),
                    statistics.fmean(x[1] for x in d), statistics.fmean(x[2] for x in d),
                    statistics.fmean(x[1] >= x[2] - 1e-9 for x in d),
                    statistics.fmean(x[3] for x in d))
            got = (report.turns_analyzed, report.turns_skipped, report.avg_chosen_ig.mean,
                   report.avg_optimal_ig.mean, report.avg_optimal_rate.mean,
                   report.avg_questions_per_turn.mean)
            if any(abs(a - b) > 1e-9 for a, b in zip(got, want)):
                raise Incorrect(f"{game['path'].name}: report {got} != reference {want}")
        return 0

    def finish(self) -> None:
        """Turn by turn, over the whole corpus: the program's decisions against the reference."""
        transcripts = [engine.load_transcript(g["path"]) for g in self.corpus]
        got: list[list] = [[] for _ in transcripts]
        skipped = 0
        for i, decision in trace_analysis.iter_turn_decisions(transcripts, self.graph,
                                                              parser=self.parser):
            if decision is None:
                skipped += 1
                continue
            scored = [c.counterfactual_ig for c in decision.candidates
                      if c.counterfactual_ig is not None]
            if abs(decision.optimal_ig - max(scored)) > 1e-9:
                raise Incorrect(f"turn {decision.turn_index}: optimal_ig is not the best candidate")
            got[i].append((decision.turn_index, decision.chosen_ig, decision.optimal_ig,
                           len(decision.candidates)))
        for game, decisions in zip(self.corpus, got):
            want = game["decisions"]
            if [(t, n) for t, _, _, n in decisions] != [(t, n) for t, _, _, n in want] or any(
                abs(a - b) > 1e-9 for x, y in zip(decisions, want) for a, b in zip(x[1:3], y[1:3])
            ):
                raise Incorrect(f"{game['path'].name}: per-turn decisions differ from the reference")
        analysed = sum(map(len, got))
        if analysed + skipped != sum(g["turns"] for g in self.corpus):
            raise Incorrect(f"{analysed} analysed + {skipped} skipped != turns in the corpus")


CLASSES = {"sweep40": Sweep40, "synth4k": Synth4k, "llm-triad": LlmTriad, "analyze": Analyze}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    w = CLASSES[name](seed, work)
    try:
        w.prepare()
        setup_times: list[float] = []

        def setup() -> None:
            t0 = clock()
            w.setup()
            setup_times.append(clock() - t0)

        # Set-up repeats are spread over the window, so that their median sees
        # the same machine as the operations do.
        setup()
        stats_before = w.mock_stats()
        latencies: list[float] = []
        attempted = failed = rounds = 0
        busy = 0.0
        correct = True
        try:
            while busy < seconds or attempted < MIN_OPERATIONS:
                t0 = clock()
                results = w.round(rounds)
                busy += clock() - t0
                attempted += len(results)
                latencies += [lat for lat, _ in results]
                rounds += 1
                failed += w.check(results)
                while len(setup_times) < w.setup_reps * min(1.0, busy / seconds):
                    setup()
            w.finish()
        except Incorrect as exc:
            print(f"{name}: INCORRECT: {exc}", file=sys.stderr)
            correct = False
        stats_after = w.mock_stats()
    finally:
        w.close()
    if trace:
        mock = None
        if stats_before is not None:
            mock = (stats_after[0] - stats_before[0], stats_after[1] - stats_before[1])
        metrics = tracing.layer_metrics(tracer, busy, mock)
        metrics["trace.games_per_s"] = (attempted - failed) / busy
        tracer.write(OUT / f"trace_{name}.csv")
    else:
        metrics = {
            "games_per_s": (attempted - failed) / busy,
            "game_ms_p50": statistics.median(latencies) * 1e3,
            "game_ms_p90": percentile(latencies, 90) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    # BENCHMARK.json declares every metric's name and unit.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} are not as declared")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }, rounds


def run_all(args) -> int:
    """Every workload in its own process; a table of its metrics."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.4f} {m['unit']}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args)
    result, rounds = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"BENCH_{args.workload}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "python": sys.version.split()[0], **result,
    }, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
