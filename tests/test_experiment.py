import json
import math
import pathlib
import time
import weakref

import pytest

import infoseek.experiment as experiment
from infoseek.agents import AgentFailure, RuleOracle, RulePruner
from infoseek.dataset import bundled_dataset_path
from infoseek.engine import load_transcript, replay
from infoseek.experiment import (
    AgentSpec,
    ConfigError,
    ExperimentConfig,
    derived_seed,
    export_timeline,
    load_report,
    render_results_table,
    run_experiment,
    transcript_filename,
)
from infoseek.llm import EndpointConfig
from infoseek.metrics import aggregate
from infoseek.taxonomy import Level, NodeId


def quick_config(**overrides) -> ExperimentConfig:
    base = dict(dataset_path=str(bundled_dataset_path()), runs_per_target=1, max_turns=10)
    base.update(overrides)
    return ExperimentConfig(**base)


def run_collected(cfg: ExperimentConfig):
    """The report, and the transcripts that `progress` saw in order (a run keeps none)."""
    seen = []
    report = run_experiment(cfg, progress=seen.append)
    return report, seen


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = quick_config()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_llm_spec_round_trips_endpoint(self):
        endpoint = EndpointConfig(
            base_url="http://localhost:9", model_name="m", temperature=0.3
        )
        cfg = quick_config(seeker=AgentSpec("llm", endpoint))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.seeker.endpoint == endpoint

    def test_from_file(self, tmp_path):
        cfg = quick_config(label="smoke")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_file(path) == cfg

    def test_from_file_rejects_non_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("runs_per_target: 3")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"runs_per_target": 0},
            {"parallelism": 0},
            {"max_turns": 0},
            {"seeker": AgentSpec("psychic")},
            {"oracle": AgentSpec("greedy")},
            {"seeker": AgentSpec("llm")},  # llm without endpoint
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            quick_config(**overrides)

    def test_schema_version_pinned(self):
        d = quick_config().to_dict()
        d["schema_version"] = 99
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_bad_observability_string(self):
        d = quick_config().to_dict()
        d["observability"] = "partial"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "change",
        [
            {"reasoning_enabled": "false"},
            {"audit": "no"},
            {"runs_per_target": 2.9},
            {"runs_per_targets": 2},  # a misspelt key would leave the default in force
            {"schema_version": True},
            {"seeker": {"kind": "llm", "endpoint": {"base_url": 5, "model_name": "m"}}},
            {"seeker": {"kind": "llm", "endpoint": {
                "base_url": "http://x", "model_name": "m", "max_retries": True}}},
            {"seeker": {"kind": "llm", "endpoint": {
                "base_url": "http://x", "model_name": "m", "colour": "red"}}},
            # a run-level setting; the endpoint has no such field
            {"seeker": {"kind": "llm", "endpoint": {
                "base_url": "http://x", "model_name": "m", "reasoning_enabled": True}}},
        ],
    )
    def test_mistyped_or_unknown_values_rejected(self, change):
        d = quick_config().to_dict()
        d.update(change)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("think", [False, True])
    def test_run_reasoning_setting_reaches_llm_agents(self, think):
        spec = AgentSpec("llm", EndpointConfig(base_url="http://x", model_name="m"))
        cfg = quick_config(seeker=spec, oracle=spec, pruner=spec, reasoning_enabled=think)
        assert [a.reasoning_enabled for a in experiment.build_agents(cfg)] == [think] * 3

    def test_int_is_read_as_float(self):
        d = quick_config().to_dict()
        d["seeker"] = {"kind": "llm", "endpoint": {
            "base_url": "http://x", "model_name": "m", "temperature": 1}}
        temperature = ExperimentConfig.from_dict(d).seeker.endpoint.temperature
        assert temperature == 1.0 and type(temperature) is float

    def test_readme_example_config_parses(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Experiment config", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_dict(json.loads(example))
        assert cfg.seeker.kind == "llm" and cfg.seeker.endpoint.temperature == 0.6


class TestDerivedSeed:
    def test_stable(self):
        t = NodeId(Level.CITY, 3)
        assert derived_seed(0, t, 1) == derived_seed(0, t, 1)

    def test_sensitive_to_every_component(self):
        t, u = NodeId(Level.CITY, 3), NodeId(Level.CITY, 4)
        seeds = {
            derived_seed(0, t, 1),
            derived_seed(1, t, 1),
            derived_seed(0, u, 1),
            derived_seed(0, t, 2),
        }
        assert len(seeds) == 4


def test_transcript_filename_is_filesystem_safe():
    assert transcript_filename(NodeId(Level.CITY, 3), 1) == "city-3_run1.jsonl"
    assert "/" not in transcript_filename(NodeId(Level.CITY, 40), 12)


class TestRunExperiment:
    def test_greedy_sweep_wins_everything(self):
        report, transcripts = run_collected(quick_config())
        assert report.aggregate.n_games == 40
        assert report.aggregate.win_rate.mean == 1.0
        assert report.aggregate.win_rate.se == 0.0
        assert report.failure_count == 0
        assert report.fault_summary == {}
        assert all(t.outcome == "win" for t in transcripts)

    def test_jobs_cover_targets_times_runs(self):
        report = run_experiment(quick_config(runs_per_target=2))
        assert report.aggregate.n_games == 80
        assert len(report.per_game) == 80
        assert report.per_game[0] == "city-1_run1.jsonl"
        assert report.per_game[1] == "city-1_run2.jsonl"

    def test_deterministic_across_invocations(self):
        cfg = quick_config(seeker=AgentSpec("random"), base_seed=5)
        a, a_games = run_collected(cfg)
        b, b_games = run_collected(cfg)
        assert a.aggregate == b.aggregate
        assert [t.turns for t in a_games] == [t.turns for t in b_games]

    def test_parallelism_does_not_change_results(self):
        serial, serial_games = run_collected(quick_config(seeker=AgentSpec("random"), base_seed=9))
        parallel, parallel_games = run_collected(
            quick_config(seeker=AgentSpec("random"), base_seed=9, parallelism=4)
        )
        assert serial.aggregate == parallel.aggregate
        assert [t.config.target for t in serial_games] == [
            t.config.target for t in parallel_games
        ]

    def test_progress_callback_sees_each_game(self):
        seen = []
        run_experiment(quick_config(), progress=lambda t: seen.append(str(t.config.target)))
        assert len(seen) == 40
        assert seen[0] == "city:1"

    def test_base_seed_changes_random_outcomes(self):
        _, a_games = run_collected(quick_config(seeker=AgentSpec("random"), base_seed=1))
        _, b_games = run_collected(quick_config(seeker=AgentSpec("random"), base_seed=2))
        assert [t.turns for t in a_games] != [t.turns for t in b_games]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_run_keeps_no_transcript(self, parallelism, monkeypatch):
        started = []
        play = experiment.play_game

        def counted_play(*args, **kwargs):
            started.append(None)
            return play(*args, **kwargs)

        monkeypatch.setattr(experiment, "play_game", counted_play)
        refs = []
        ahead = []  # games started and not yet folded, as each one is folded

        def progress(transcript):
            if not refs:
                time.sleep(0.05)  # time for the workers to run ahead, if they may
            refs.append(weakref.ref(transcript))
            ahead.append(len(started) - len(refs))

        # a short turn budget keeps the window (parallelism × max_turns) under 40 games
        cfg = quick_config(parallelism=parallelism, max_turns=3)
        report = run_experiment(cfg, progress=progress)
        assert report.aggregate.n_games == len(refs) == len(started) == 40
        assert [ref for ref in refs if ref() is not None] == []
        assert max(ahead) <= parallelism * cfg.max_turns


class TestPersistence:
    def test_output_layout_and_replayability(self, tmp_path, base_graph):
        out = tmp_path / "exp"
        report = run_experiment(quick_config(output_dir=str(out)))
        assert (out / "config.json").is_file()
        assert (out / "report.json").is_file()
        assert (out / "timeline.csv").is_file()
        saved = sorted(p.name for p in (out / "transcripts").iterdir())
        assert len(saved) == 40
        assert saved[0] == "city-10_run1.jsonl"  # lexicographic listing
        for path in report.per_game:
            assert pathlib.Path(path).is_file()
        # every persisted transcript replays against the same dataset
        loaded = load_transcript(out / "transcripts" / "city-7_run1.jsonl")
        assert replay(loaded, base_graph).win is True

    def test_report_round_trip(self, tmp_path):
        out = tmp_path / "exp"
        report = run_experiment(quick_config(output_dir=str(out)))
        again = load_report(out / "report.json")
        assert again.config == report.config
        assert again.aggregate == report.aggregate
        assert again.timeline == report.timeline
        assert again.manifest == report.manifest
        assert again.per_game == report.per_game
        assert "transcripts" not in json.loads((out / "report.json").read_text(encoding="utf-8"))

    def test_aggregate_recomputable_from_saved_transcripts(self, tmp_path):
        out = tmp_path / "exp"
        report = run_experiment(quick_config(output_dir=str(out)))
        games = [
            load_transcript(p).game_metrics
            for p in sorted((out / "transcripts").iterdir())
        ]
        redone = aggregate(games)
        assert math.isclose(
            redone.total_ig.mean, report.aggregate.total_ig.mean, abs_tol=1e-9
        )
        assert math.isclose(
            redone.avg_turns.mean, report.aggregate.avg_turns.mean, abs_tol=1e-9
        )

    def test_load_report_rejects_garbage(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"partial": true}')
        with pytest.raises(ConfigError):
            load_report(path)


class TestFailureAccounting:
    @pytest.fixture
    def rigged(self, monkeypatch):
        """Swap in a seeker that always fails, keeping oracle and pruner real."""

        def rigged_build(cfg):
            _, oracle, pruner = original(cfg)

            class FailAlways:
                def ask(self, ctx):
                    raise AgentFailure("rigged")

            return FailAlways(), oracle, pruner

        original = experiment.build_agents
        monkeypatch.setattr(experiment, "build_agents", rigged_build)

    def test_failures_counted_as_losses_by_default(self, rigged):
        report, transcripts = run_collected(quick_config())
        assert report.failure_count == 40
        assert report.aggregate.n_games == 40
        assert report.aggregate.win_rate.mean == 0.0
        # a failed game is charged the full turn budget
        assert report.aggregate.avg_turns.mean == 10.0
        assert all(t.outcome == "agent_failure" for t in transcripts)

    def test_failures_can_be_excluded(self, rigged):
        with pytest.raises(AgentFailure, match="all 40 games ended in agent_failure"):
            # excluding every game leaves nothing to aggregate
            run_experiment(quick_config(count_failures_as_losses=False))


class TestRendering:
    def test_results_table_shape(self):
        report = run_experiment(quick_config(label="greedy-baseline"))
        table = render_results_table([report])
        lines = table.splitlines()
        assert lines[0].startswith("Model")
        assert set(lines[1]) <= {"-", "+"}
        assert "greedy-baseline" in lines[2]
        assert "FO" in lines[2]
        assert "1.00 ± 0.00" in lines[2]
        assert "5.32 ± 0.00" in lines[2]

    def test_row_label_fallbacks(self):
        report = run_experiment(quick_config())
        table = render_results_table([report])
        assert "greedy" in table.splitlines()[2]

    def test_empty_table_is_header_only(self):
        table = render_results_table([])
        assert table.splitlines()[0].startswith("Model")
        assert len(table.splitlines()) == 2

    def test_timeline_export(self, tmp_path):
        report = run_experiment(quick_config())
        text = export_timeline(report)
        lines = text.splitlines()
        assert lines[0] == "turn_index,mean_ig,n_games"
        assert len(lines) == 1 + 10  # max_turns rows
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > 0
        assert first[2] == "40"
        # greedy games all end by turn 7: later rows are empty means
        assert lines[-1] == "10,,0"
        out = tmp_path / "timeline.csv"
        export_timeline(report, out)
        assert out.read_text() == text

    def test_timeline_counts_never_increase(self):
        report = run_experiment(quick_config(seeker=AgentSpec("random")))
        counts = [p.n_games for p in report.timeline]
        assert counts == sorted(counts, reverse=True)
