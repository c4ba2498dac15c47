import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import ASIA_Q, EUROPE, EUROPE_Q, NON_ASIA, TOKYO, manual_transcript

from infoseek import trace_analysis
from infoseek.agents import GreedyHalvingSeeker, RuleOracle, RulePruner
from infoseek.cli import main
from infoseek.dataset import bundled_dataset_path
from infoseek.engine import GameConfig, load_transcript, play_game, save_transcript

PINNED_CONTENT_HASH = "e277bd27e86c8ed6adfc6c9441c6bfd22e8caa69fa55a846f69af556c81df1ef"
PINNED_FINGERPRINT = "cc51375199c7d5eb36552e0ecfcf670bfb9e64f07667faed73f2f8928c6873fb"

CSV = str(bundled_dataset_path())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateData:
    def test_bundled_dataset(self, capsys):
        code, out, err = run_cli(capsys, "validate-data", CSV)
        assert code == 0
        assert "records: 40" in out
        assert f"content_hash: {PINNED_CONTENT_HASH}" in out
        assert "nodes: region=4 subregion=12 country=24 state=39 city=40" in out
        assert f"graph_fingerprint: {PINNED_FINGERPRINT}" in out
        assert "top_n" not in out

    def test_top_n(self, capsys):
        code, out, _ = run_cli(capsys, "validate-data", CSV, "--top-n", "10")
        assert code == 0
        assert "records: 10" in out
        assert "top_n: 10" in out
        assert "city=10" in out

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate-data", str(tmp_path / "nope.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "validate-data", str(bad))
        assert code == 1
        assert "error:" in err


class TestRun:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "schema_version": 1,
            "dataset_path": CSV,
            "runs_per_target": 1,
            "max_turns": 10,
            "seeker": {"kind": "greedy"},
            "oracle": {"kind": "rule"},
            "pruner": {"kind": "rule"},
            "label": "greedy-fo",
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_greedy_batch(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(self.write_config(tmp_path)))
        assert code == 0
        assert "greedy-fo" in out
        assert "1.00 ± 0.00" in out  # win rate
        assert "5.32 ± 0.00" in out  # total IG
        assert err == ""

    def test_verbose_progress(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", str(self.write_config(tmp_path)), "--verbose"
        )
        assert code == 0
        lines = [l for l in err.splitlines() if l.startswith("[")]
        assert len(lines) == 40
        assert "-> win" in lines[0]

    def test_outputs_written(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        cfg = self.write_config(tmp_path, output_dir=str(out_dir))
        code, _, err = run_cli(capsys, "run", str(cfg))
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "config.json").exists()
        assert len(list((out_dir / "transcripts").glob("*.jsonl"))) == 40
        assert str(out_dir) in err

    def test_every_game_failing_is_a_runtime_failure(self, capsys, tmp_path, mock_llm):
        for _ in range(40):
            mock_llm.enqueue(401, "invalid api key")
        endpoint = {"base_url": mock_llm.url, "model_name": "m", "backoff_seconds": 0.01}
        cfg = self.write_config(tmp_path, seeker={"kind": "llm", "endpoint": endpoint})
        code, _, err = run_cli(capsys, "run", str(cfg))
        assert code == 2
        assert "agent failures: 40" in err
        assert "all 40 games ended in agent_failure" in err
        assert len(mock_llm.requests) == 40  # a 401 is not retried

    def test_every_game_failing_uncounted_is_a_runtime_failure(
        self, capsys, tmp_path, mock_llm
    ):
        for _ in range(40):
            mock_llm.enqueue(401, "invalid api key")
        endpoint = {"base_url": mock_llm.url, "model_name": "m", "backoff_seconds": 0.01}
        out_dir = tmp_path / "results"
        cfg = self.write_config(
            tmp_path,
            seeker={"kind": "llm", "endpoint": endpoint},
            count_failures_as_losses=False,
            output_dir=str(out_dir),
        )
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == 2
        assert out == ""
        assert err == "runtime failure: all 40 games ended in agent_failure\n"
        assert not (out_dir / "report.json").exists()

    def test_bad_config_file(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1}', encoding="utf-8")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert "error:" in err

    def test_directory_as_config_is_bad_input(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path}: not a file\n"


class TestReplayCommand:
    @pytest.fixture
    def transcript_path(self, base_graph, tmp_path):
        transcript = play_game(
            GreedyHalvingSeeker(),
            RuleOracle(),
            RulePruner(),
            base_graph.fresh_copy(),
            GameConfig(target=TOKYO),
        )
        path = tmp_path / "game.jsonl"
        save_transcript(transcript, path)
        return path

    def test_replay_ok(self, capsys, transcript_path):
        code, out, _ = run_cli(capsys, "replay", str(transcript_path), CSV)
        assert code == 0
        assert out.startswith("replay ok: outcome=win")
        assert "total_ig=5.3219" in out

    def test_tampered_transcript_rejected(self, capsys, transcript_path):
        lines = transcript_path.read_text(encoding="utf-8").splitlines()
        doctored = []
        for line in lines:
            obj = json.loads(line)
            if obj.get("kind") == "turn" and obj["turn_index"] == 1:
                obj["ig"] += 0.5
            doctored.append(json.dumps(obj, sort_keys=True))
        transcript_path.write_text("\n".join(doctored) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "replay", str(transcript_path), CSV)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_missing_transcript(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "replay", str(tmp_path / "nope.jsonl"), CSV)
        assert code == 1
        assert "error:" in err

    def test_directory_as_transcript_is_bad_input(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "replay", str(tmp_path), CSV)
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path}: not a file\n"


class TestAnalyze:
    @pytest.fixture
    def transcripts_dir(self, base_graph, tmp_path):
        trace = f'Either "{ASIA_Q}" or "{EUROPE_Q}" could work.'
        games = [
            manual_transcript(base_graph, TOKYO, [(ASIA_Q, trace, "Yes", NON_ASIA)]),
            manual_transcript(base_graph, TOKYO, [(EUROPE_Q, trace, "No", EUROPE)]),
        ]
        directory = tmp_path / "transcripts"
        directory.mkdir()
        for i, game in enumerate(games):
            save_transcript(game, directory / f"game{i}.jsonl")
        return directory

    def test_summary(self, capsys, transcripts_dir):
        code, out, _ = run_cli(capsys, "analyze", str(transcripts_dir), CSV)
        assert code == 0
        assert "games: 2" in out
        assert "turns analyzed: 2 (skipped: 0)" in out
        assert "Avg Optimal Rate: 0.50 ± 0.71" in out
        assert "Avg Questions/Turn: 2.00 ± 0.00" in out

    def test_detail_csv(self, capsys, transcripts_dir, tmp_path):
        detail = tmp_path / "detail.csv"
        code, _, err = run_cli(
            capsys, "analyze", str(transcripts_dir), CSV, "--detail", str(detail)
        )
        assert code == 0
        assert str(detail) in err
        lines = detail.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("game_index,turn_index,chosen_ig")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert float(first[2]) > 0  # repr'd floats parse back
        assert first[4] == "1"  # game 0 chose the optimal question

    def test_detail_walks_each_transcript_once(self, capsys, transcripts_dir, tmp_path,
                                               monkeypatch):
        walked = []
        real = trace_analysis.replay_turns

        def counting(transcript, graph):
            walked.append(transcript)
            return real(transcript, graph)

        monkeypatch.setattr(trace_analysis, "replay_turns", counting)
        code, out, _ = run_cli(
            capsys, "analyze", str(transcripts_dir), CSV, "--detail", str(tmp_path / "d.csv")
        )
        assert code == 0
        assert "turns analyzed: 2 (skipped: 0)" in out
        assert len(walked) == 2

    def test_empty_dir(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code, _, err = run_cli(capsys, "analyze", str(empty), CSV)
        assert code == 1
        assert "error:" in err


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    from infoseek.experiment import AgentSpec, ExperimentConfig, run_experiment

    out_dir = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig(
        dataset_path=CSV,
        runs_per_target=1,
        max_turns=10,
        seeker=AgentSpec("greedy"),
        output_dir=str(out_dir),
        label="table-check",
    )
    run_experiment(cfg)
    return out_dir / "report.json"


class TestReportAndTimeline:

    def test_report_table(self, capsys, report_path):
        code, out, _ = run_cli(capsys, "report", str(report_path))
        assert code == 0
        assert "table-check" in out
        assert "1.00 ± 0.00" in out

    def test_two_reports_two_rows(self, capsys, report_path):
        code, out, _ = run_cli(capsys, "report", str(report_path), str(report_path))
        assert code == 0
        assert out.count("table-check") == 2

    def test_timeline_stdout(self, capsys, report_path):
        code, out, _ = run_cli(capsys, "timeline", str(report_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("turn_index,")
        assert lines[1].startswith("1,")
        assert len(lines) == 11  # header + max_turns rows

    def test_timeline_to_file(self, capsys, report_path, tmp_path):
        out_file = tmp_path / "timeline.csv"
        code, out, err = run_cli(
            capsys, "timeline", str(report_path), "--out", str(out_file)
        )
        assert code == 0
        assert out == ""
        assert str(out_file) in err
        assert out_file.read_text(encoding="utf-8").startswith("turn_index,")

    def test_unwritable_out_is_runtime_failure(self, capsys, report_path, tmp_path):
        code, _, err = run_cli(
            capsys, "timeline", str(report_path), "--out", str(tmp_path)
        )
        assert code == 2
        assert "runtime failure:" in err

    def test_llm_report_with_endpoint_reasoning_flag_is_bad_input(
        self, capsys, report_path, tmp_path
    ):
        # Reports written before `reasoning_enabled` became run-level only
        # carry the key in every endpoint; they load once it is deleted.
        endpoint = {"base_url": "http://x", "model_name": "m", "reasoning_enabled": False}
        old = json.loads(report_path.read_text(encoding="utf-8"))
        old["config"]["seeker"] = {"kind": "llm", "endpoint": endpoint}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(old), encoding="utf-8")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1
        assert "unknown field 'reasoning_enabled'" in err
        del endpoint["reasoning_enabled"]
        path.write_text(json.dumps(old), encoding="utf-8")
        code, out, _ = run_cli(capsys, "report", str(path))
        assert code == 0 and "table-check" in out

    def test_garbage_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"what": 1}', encoding="utf-8")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1
        assert "error:" in err


class TestPlay:
    def feed(self, monkeypatch, lines):
        queue = iter(lines)

        def fake_input(prompt=""):
            try:
                return next(queue)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)

    def test_first_guess_wins(self, capsys, monkeypatch):
        self.feed(monkeypatch, ["Is the target city Tokyo?"])
        code, out, _ = run_cli(capsys, "play", CSV, "--target", "Tokyo")
        assert code == 0
        assert "40 candidates" in out
        assert "You got it in 1 turn(s): Tokyo." in out
        assert "Total IG 5.3219 bits." in out

    def test_unreadable_question_costs_no_turn(self, capsys, monkeypatch, tmp_path):
        save = tmp_path / "session.jsonl"
        self.feed(
            monkeypatch,
            ["Where is it?", "", "Is the target city Tokyo?"],
        )
        code, out, _ = run_cli(
            capsys, "play", CSV, "--target", "Tokyo", "--save", str(save)
        )
        assert code == 0
        assert "Couldn't read that" in out
        assert "You got it in 1 turn(s)" in out
        assert load_transcript(save).game_metrics.turns == 1

    def test_narrowing_answers_shown(self, capsys, monkeypatch):
        self.feed(
            monkeypatch,
            ["Is the target city in Asia?", "Is the target city Tokyo?"],
        )
        code, out, _ = run_cli(capsys, "play", CSV, "--target", "Tokyo")
        assert code == 0
        assert "A1: Yes" in out
        assert "27 candidates left" in out
        assert "You got it in 2 turn(s)" in out

    def test_quit_aborts(self, capsys, monkeypatch):
        self.feed(monkeypatch, ["quit"])
        code, out, _ = run_cli(capsys, "play", CSV, "--target", "Tokyo")
        assert code == 0
        assert "Session aborted." in out

    def test_eof_aborts(self, capsys, monkeypatch):
        self.feed(monkeypatch, [])
        code, out, _ = run_cli(capsys, "play", CSV, "--target", "Tokyo")
        assert code == 0
        assert "Session aborted." in out

    def test_fo_shows_graph(self, capsys, monkeypatch):
        self.feed(monkeypatch, ["Is the target city Tokyo?"])
        code, out, _ = run_cli(capsys, "play", CSV, "--target", "Tokyo", "--fo")
        assert code == 0
        assert "city:1 Tokyo [ACTIVE]" in out

    def test_po_hides_graph(self, capsys, monkeypatch):
        self.feed(monkeypatch, ["Is the target city Tokyo?"])
        code, out, _ = run_cli(capsys, "play", CSV, "--target", "Tokyo", "--po")
        assert code == 0
        assert "[ACTIVE]" not in out

    def test_turn_limit_reveals_city(self, capsys, monkeypatch):
        self.feed(monkeypatch, ["Is the target city in Asia?"])
        code, out, _ = run_cli(
            capsys, "play", CSV, "--target", "Tokyo", "--max-turns", "1"
        )
        assert code == 0
        assert "Out of turns! The city was Tokyo." in out

    def test_seeded_random_target_is_stable(self, capsys, monkeypatch):
        question = "Is the target city in Asia?"
        self.feed(monkeypatch, [question])
        code, out1, _ = run_cli(capsys, "play", CSV, "--seed", "7", "--max-turns", "1")
        assert code == 0
        assert "The city was" in out1
        self.feed(monkeypatch, [question])
        _, out2, _ = run_cli(capsys, "play", CSV, "--seed", "7", "--max-turns", "1")
        assert out1 == out2

    def test_unknown_target(self, capsys):
        code, _, err = run_cli(capsys, "play", CSV, "--target", "Gotham")
        assert code == 1
        assert "error:" in err

    def test_saved_session_replays(self, capsys, monkeypatch, tmp_path, base_graph):
        from infoseek.engine import replay

        save = tmp_path / "session.jsonl"
        self.feed(
            monkeypatch,
            ["Is the target city in Asia?", "Is the target city Tokyo?"],
        )
        run_cli(capsys, "play", CSV, "--target", "Tokyo", "--save", str(save))
        transcript = load_transcript(save)
        assert transcript.outcome == "win"
        metrics = replay(transcript, base_graph)
        assert metrics.turns == 2


class TestArgumentErrors:
    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage:" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage:" in err

    def test_missing_positional(self, capsys):
        code, _, err = run_cli(capsys, "validate-data")
        assert code == 1
        assert "usage:" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "validate-data" in out
        assert "play" in out

    def test_play_target_and_random_conflict(self, capsys):
        code, _, err = run_cli(capsys, "play", CSV, "--target", "Tokyo", "--random")
        assert code == 1
        assert "usage:" in err


def test_module_runs_as_script():
    # pytest's own pythonpath setting does not reach a child process.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "infoseek.cli", "validate-data", CSV],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "records: 40" in proc.stdout
