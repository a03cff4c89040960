"""Tests for the declarative ArtifactSpec registry and its legacy shim."""

import pytest

from repro.core.registry import (
    CORPUS,
    FIGURE_IDS,
    REGISTRY,
    ArtifactSpec,
    description_of,
    register,
    sweep_resource,
)
from repro.core.study import FigureResult, Study


class TestSpecs:
    def test_every_entry_is_a_spec(self):
        for figure_id, spec in REGISTRY.items():
            assert isinstance(spec, ArtifactSpec)
            assert spec.artifact_id == figure_id
            assert spec.description
            assert spec.builder_name.startswith("_")

    def test_builders_resolve_on_study(self, study):
        for spec in REGISTRY.values():
            assert callable(spec.bind(study))

    def test_sweep_artifacts_declare_their_resource(self):
        assert REGISTRY["fig18"].depends == (sweep_resource(1),)
        assert REGISTRY["fig19"].depends == (sweep_resource(2),)
        assert REGISTRY["fig20"].depends == (sweep_resource(4),)
        assert REGISTRY["fig21"].depends == (sweep_resource(4),)

    def test_corpus_artifacts_declare_the_corpus(self):
        assert CORPUS in REGISTRY["fig3"].depends
        assert CORPUS not in REGISTRY["table2"].depends

    def test_tags_classify(self):
        assert "figure" in REGISTRY["fig1"].tags
        assert "table" in REGISTRY["table1"].tags
        assert "extension" in REGISTRY["gap"].tags

    def test_description_of(self):
        assert description_of("fig5") == REGISTRY["fig5"].description


class TestRegister:
    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(REGISTRY["fig1"])

    def test_callable_builder_registration(self, study):
        def build(target_study: Study) -> FigureResult:
            return FigureResult(
                figure_id="custom_count",
                title="corpus size",
                series={"count": len(target_study.corpus)},
                text=str(len(target_study.corpus)),
            )

        spec = ArtifactSpec(
            artifact_id="custom_count",
            builder=build,
            description="how many results the corpus holds",
            tags=("extension",),
        )
        register(spec)
        try:
            result = study.figure("custom_count")
            assert result.series["count"] == 477
            assert spec.builder_name == "build"
        finally:
            del REGISTRY["custom_count"]

    def test_registry_order_matches_figure_ids(self):
        assert tuple(REGISTRY) == FIGURE_IDS
