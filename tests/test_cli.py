"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_BROKEN_PIPE, main

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_artifacts(self):
        code, output = _run(["list"])
        assert code == 0
        for figure_id in ("fig1", "fig21", "table2", "eq2", "wong"):
            assert figure_id in output


def _spawn_list(stdout):
    """``python -m repro list`` writing to ``stdout``; stderr captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (_SRC, env.get("PYTHONPATH")) if part
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "list"],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


class TestClosedPipe:
    def test_reader_closing_after_one_line_ends_quietly(self):
        child = _spawn_list(subprocess.PIPE)
        assert child.stdout.readline()
        child.stdout.close()  # whether the child had written all is a race
        stderr = child.stderr.read()
        assert child.wait(timeout=60) in (0, EXIT_BROKEN_PIPE)
        assert stderr == ""

    def test_reader_gone_before_the_write_exits_141_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = _spawn_list(write_end)
        finally:
            os.close(write_end)
        _out, stderr = child.communicate(timeout=60)
        assert child.returncode == EXIT_BROKEN_PIPE == 141
        assert stderr == ""

    def test_broken_pipe_from_any_stream_is_the_pipe_exit(self):
        class ClosesAfterOneLine(io.StringIO):
            def write(self, text):
                if "\n" in self.getvalue():
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        assert main(["list"], out=ClosesAfterOneLine()) == EXIT_BROKEN_PIPE


class TestFigure:
    def test_renders_known_artifact(self):
        code, output = _run(["figure", "table2"])
        assert code == 0
        assert "ThinkServer RD450" in output

    def test_unknown_artifact_fails_cleanly(self, capsys):
        code, _output = _run(["figure", "fig99"])
        assert code == 2

    def test_seed_changes_the_corpus(self):
        _code, a = _run(["--seed", "1", "figure", "fig6"])
        _code, b = _run(["--seed", "2", "figure", "fig6"])
        # Counts are pinned regardless of seed.
        assert "152" in a and "152" in b


class TestGenerate:
    def test_writes_csv(self, tmp_path):
        target = tmp_path / "corpus.csv"
        code, output = _run(["generate", "--out", str(target)])
        assert code == 0
        assert "477" in output
        header = target.read_text().splitlines()[0]
        assert header.startswith("result_id,")
        from repro.dataset.io import load_corpus

        assert len(load_corpus(target)) == 477


class TestValidate:
    def test_clean_corpus_passes(self, tmp_path):
        target = tmp_path / "corpus.csv"
        _run(["generate", "--out", str(target)])
        code, output = _run(["validate", str(target)])
        assert code == 0
        assert "0 error(s)" in output

    def test_corrupted_corpus_fails(self, tmp_path):
        target = tmp_path / "corpus.csv"
        _run(["generate", "--out", str(target)])
        lines = target.read_text().splitlines()
        # Corrupt one row: make the 100% power tiny so the curve is
        # grossly non-monotone.
        header = lines[0].split(",")
        column = header.index("power_100")
        cells = lines[1].split(",")
        cells[column] = "1.0"
        lines[1] = ",".join(cells)
        target.write_text("\n".join(lines) + "\n")
        code, output = _run(["validate", str(target)])
        assert code == 1
        assert "error" in output


class TestReport:
    def test_writes_markdown(self, tmp_path):
        target = tmp_path / "EXPERIMENTS.md"
        code, _output = _run(["report", "--out", str(target)])
        assert code == 0
        text = target.read_text()
        assert "paper vs. measured" in text
        assert "| eq2 |" in text


class TestSweep:
    def test_sweeps_a_testbed_server(self):
        code, output = _run(["sweep", "2"])
        assert code == 0
        assert "Sugon I620-G10" in output
        assert "best memory per core: 4" in output

    def test_rejects_unknown_server(self):
        with pytest.raises(SystemExit):
            _run(["sweep", "9"])


class TestRunAll:
    def test_renders_every_artifact(self, tmp_path):
        directory = tmp_path / "artifacts"
        code, output = _run(["run-all", "--output-dir", str(directory)])
        assert code == 0
        files = sorted(p.name for p in directory.iterdir())
        assert "fig1.txt" in files
        assert "wong.txt" in files
        assert len(files) == 36

    def test_cached_run_with_report(self, tmp_path):
        directory = tmp_path / "artifacts"
        cache_dir = tmp_path / "cache"
        argv = [
            "--cache-dir", str(cache_dir),
            "run-all", "--output-dir", str(directory), "--report",
        ]
        code, cold = _run(argv)
        assert code == 0
        assert "0 cached" in cold
        code, warm = _run(argv)
        assert code == 0
        assert "36 cached" in warm

    def test_injected_fault_with_isolate_quarantines_and_exits_nonzero(
        self, tmp_path
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"seed": 0, "faults": [{"site": "builder.fig5", '
            '"mode": "fail", "error": "build"}]}'
        )
        directory = tmp_path / "artifacts"
        code, output = _run(
            ["run-all", "--output-dir", str(directory),
             "--on-error", "isolate", "--inject", str(plan)]
        )
        assert code == 1
        assert "wrote 35 of 36 artifacts" in output
        assert "fig5: BuildError" in output
        files = sorted(p.name for p in directory.iterdir())
        assert "fig5.txt" not in files
        assert "fig3.txt" in files

    def test_injected_transient_masked_by_retry(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"site": "builder.fig5", "mode": "fail-once", '
            '"error": "transient"}]}'
        )
        directory = tmp_path / "artifacts"
        code, output = _run(
            ["run-all", "--output-dir", str(directory),
             "--on-error", "isolate", "--retry", "2", "--inject", str(plan)]
        )
        assert code == 0
        assert "wrote 36 of 36 artifacts" in output
        assert "ledger" not in output


class TestJobsOption:
    def test_documented_ensemble_jobs_runs(self):
        code, output = _run(["ensemble", "--seeds", "1", "--jobs", "1"])
        assert code == 0
        assert "ensemble over 1 seeds (2016..2016)" in output

    @pytest.mark.parametrize("argv", [
        ["--jobs", "2", "run-all"],
        ["run-all", "--jobs", "2"],
    ])
    def test_run_all_takes_no_jobs(self, tmp_path, argv):
        with pytest.raises(SystemExit):
            _run(argv + ["--output-dir", str(tmp_path)])


class TestCacheCommand:
    def test_stats_and_clear(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _run([
            "--cache-dir", str(cache_dir),
            "run-all", "--output-dir", str(tmp_path / "arts"),
        ])
        code, output = _run(["--cache-dir", str(cache_dir), "cache", "stats"])
        assert code == 0
        assert "36 entr(ies)" in output
        code, output = _run(["--cache-dir", str(cache_dir), "cache", "clear"])
        assert code == 0
        assert "removed 36" in output
        code, output = _run(["--cache-dir", str(cache_dir), "cache", "stats"])
        assert "0 entr(ies)" in output
