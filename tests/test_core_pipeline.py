"""Tests for the EXPERIMENTS.md report generator and the targets
validator's failure paths."""

from pathlib import Path

import pytest

from repro.core.pipeline import build_experiments_report, main
from repro.dataset import calibration_targets as targets


class TestExperimentsReport:
    @pytest.fixture(scope="class")
    def report(self, study):
        return build_experiments_report(study)

    def test_contains_the_scalar_table(self, report):
        assert "| artifact | claim | paper | measured |" in report
        assert "| eq2 | corr(EP, idle%) | -0.92 |" in report

    def test_every_artifact_indexed(self, report):
        from repro.core.registry import REGISTRY

        for figure_id in REGISTRY:
            assert f"| {figure_id} |" in report

    def test_every_claim_has_a_measured_value(self, report):
        rows = [
            line
            for line in report.splitlines()
            if line.startswith("| fig") or line.startswith("| eq2")
        ]
        for row in rows:
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            assert len(cells) >= 3
            assert cells[-1] != ""

    def test_committed_report_is_current(self):
        """EXPERIMENTS.md is exactly what the default-seed study renders."""
        committed = Path(__file__).parent.parent / "EXPERIMENTS.md"
        assert build_experiments_report() == committed.read_text()

    def test_main_writes_the_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main([str(target)]) == 0
        assert target.read_text().startswith("# EXPERIMENTS")


class TestTargetsValidator:
    def test_valid_tables_pass(self):
        targets.validate_targets()

    def test_detects_year_count_drift(self, monkeypatch):
        broken = dict(targets.YEAR_COUNTS)
        broken[2012] += 1
        monkeypatch.setattr(targets, "YEAR_COUNTS", broken)
        with pytest.raises(AssertionError, match="477"):
            targets.validate_targets()

    def test_detects_codename_allocation_drift(self, monkeypatch):
        from repro.power.microarch import Codename

        broken = {
            year: dict(allocation)
            for year, allocation in targets.YEAR_CODENAME_COUNTS.items()
        }
        broken[2012][Codename.SANDY_BRIDGE_EP] -= 1
        monkeypatch.setattr(targets, "YEAR_CODENAME_COUNTS", broken)
        with pytest.raises(AssertionError, match="codename allocation"):
            targets.validate_targets()

    def test_detects_spot_share_drift(self, monkeypatch):
        broken = {
            year: dict(spots)
            for year, spots in targets.PEAK_SPOT_YEAR_COUNTS.items()
        }
        broken[2012][0.7] -= 20
        broken[2012][1.0] += 20
        monkeypatch.setattr(targets, "PEAK_SPOT_YEAR_COUNTS", broken)
        with pytest.raises(AssertionError, match="share"):
            targets.validate_targets()

    def test_detects_lag_plan_drift(self, monkeypatch):
        broken = dict(targets.PUBLICATION_LAG_COUNTS)
        broken[1] += 1
        monkeypatch.setattr(targets, "PUBLICATION_LAG_COUNTS", broken)
        with pytest.raises(AssertionError, match="74"):
            targets.validate_targets()
