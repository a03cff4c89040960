"""Tests for the claims table, its tier-1 gate, the EXPERIMENTS.md
report generator, and the targets validator's failure paths."""

from pathlib import Path

import pytest

from repro.core.ensemble import run_ensemble
from repro.core.pipeline import (
    CLAIMS,
    RANGE_SEEDS,
    build_experiments_report,
    main,
    measure,
)
from repro.dataset import calibration_targets as targets

GATED = [claim for claim in CLAIMS if claim.bound is not None]


@pytest.fixture(scope="module")
def report():
    """The default-seed report, built once (its 16-seed ensemble is the cost)."""
    return build_experiments_report()


@pytest.fixture(scope="module")
def measured(study):
    return dict(zip(CLAIMS, measure(study)))


def _rows(report):
    """The scalar-findings table as lists of cells."""
    return [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in report.split("## Per-artifact index")[0].splitlines()
        if line.startswith("| ") and not line.startswith("| artifact")
    ]


class TestClaimsGate:
    @pytest.mark.parametrize("claim", GATED, ids=[c.name for c in GATED])
    def test_default_seed_row_keeps_its_bound(self, claim, measured):
        assert claim.holds(measured[claim]), (
            f"{claim.name}: measured {measured[claim]!r} leaves "
            f"{claim.bound} around {claim.paper}"
        )

    @pytest.mark.parametrize("claim", GATED, ids=[c.name for c in GATED])
    def test_a_value_just_outside_fails(self, claim):
        bound, paper = claim.bound, claim.paper_value
        if bound.kind in ("abs", "rel"):
            slack = bound.value * (abs(paper) if bound.kind == "rel" else 1.0)
            inside = [paper - 0.999 * slack, paper + 0.999 * slack]
            outside = [paper - 1.001 * slack, paper + 1.001 * slack]
        elif bound.kind == "exact":
            inside, outside = [paper], [paper - 1, paper + 1]
        elif bound.kind == ">":
            inside, outside = [bound.value + 1e-9], [bound.value]
        elif bound.kind == "<":
            inside, outside = [bound.value - 1e-9], [bound.value]
        else:
            inside = [bound.value + 1e-9, bound.high - 1e-9]
            outside = [bound.value, bound.high]
        assert all(claim.holds(value) for value in inside)
        assert not any(claim.holds(value) for value in outside)

    def test_every_bound_kind_is_exercised(self):
        assert {claim.bound.kind for claim in GATED} == {
            "abs", "rel", "exact", ">", "<", "in",
        }

    def test_ungated_rows_are_the_three_no_bench_bounded(self):
        assert [c.name for c in CLAIMS if c.bound is None] == [
            "fig3: maximum EP (2012)",
            "fig14: 1-chip median EP",
            "fig14: 2-chip median EP",
        ]

    def test_claim_names_are_unique(self):
        assert len({claim.name for claim in CLAIMS}) == len(CLAIMS)

    @pytest.mark.parametrize(
        "paper, value",
        [("+48.65%", 0.4865), ("2 chips", 2.0), ("3/18", 3 / 18),
         ("-0.92", -0.92), ("12212", 12212.0), ("3.35x", 3.35)],
    )
    def test_paper_strings_parse(self, paper, value):
        claim = next(c for c in CLAIMS if c.paper == paper)
        assert claim.paper_value == value


class TestExperimentsReport:
    def test_contains_the_scalar_table(self, report):
        assert (
            "| artifact | claim | paper | gate | measured | 16-seed range |"
            in report
        )
        assert "| eq2 | corr(EP, idle%) | -0.92 | ±0.04 |" in report

    def test_every_artifact_indexed(self, report):
        from repro.core.registry import REGISTRY

        for figure_id in REGISTRY:
            assert f"| {figure_id} |" in report

    def test_every_claim_has_a_measured_value(self, report):
        rows = _rows(report)
        assert [(row[0], row[1]) for row in rows] == [
            (claim.artifact, claim.claim) for claim in CLAIMS
        ]
        for row, claim in zip(rows, CLAIMS):
            assert row[3] == str(claim.bound or "not gated")
            assert all(row), row

    def test_ensemble_seed_2016_is_the_measured_column(self, report):
        (member,) = run_ensemble([RANGE_SEEDS[0]]).per_seed
        assert [row[4] for row in _rows(report)] == [
            claim.render(value) for claim, value in zip(CLAIMS, member)
        ]

    def test_committed_report_is_current(self, report):
        """EXPERIMENTS.md is exactly what the default-seed study renders."""
        committed = Path(__file__).parent.parent / "EXPERIMENTS.md"
        assert report == committed.read_text()

    def test_main_writes_the_file(self, tmp_path, monkeypatch, report):
        import repro.core.pipeline as pipeline

        monkeypatch.setattr(pipeline, "build_experiments_report", lambda: report)
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
