"""The frozen request catalog: validation, wire form, identity."""

import dataclasses
import json

import pytest

from repro.api import (
    ArtifactQuery,
    CapQuery,
    CdfQuery,
    FAMILIES,
    GroupQuery,
    PlacementQuery,
    QueryRequest,
    ReplayQuery,
    RunAllQuery,
    SweepQuery,
    StatsQuery,
    ValidateQuery,
    canonical_spec,
    request_from_dict,
    spec_suffix,
)
from repro.api.requests import REQUEST_TYPES


class TestCatalog:
    def test_every_family_tag_is_unique_and_non_empty(self):
        tags = [cls.family for cls in REQUEST_TYPES]
        assert all(tags)
        assert len(tags) == len(set(tags))

    def test_families_maps_every_type(self):
        assert set(FAMILIES.values()) == set(REQUEST_TYPES)

    def test_requests_are_frozen(self):
        request = StatsQuery()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.metric = "score"

    def test_every_request_carries_the_explicit_common_fields(self):
        for cls in REQUEST_TYPES:
            names = {f.name for f in dataclasses.fields(cls)}
            assert {"seed", "format"} <= names, cls
            assert "fleet_backend" not in names, cls


class TestValidation:
    def test_unknown_backend_rejected(self):
        # No request names an engine any more: a payload that still
        # carries the field gets the strict unknown-field error (a 400
        # from the daemon), whatever its value.
        for value in ("auto", "scalar", "columnar", "sharded", "gpu"):
            with pytest.raises(ValueError, match="unknown field.*fleet_backend"):
                request_from_dict(
                    {"family": "replay", "servers": 30, "fleet_backend": value}
                )

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            StatsQuery(format="yaml")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ArtifactQuery(),
            lambda: StatsQuery(metric="wattage"),
            lambda: StatsQuery(hw_year_min=2016, hw_year_max=2013),
            lambda: CdfQuery(lo=0.5),
            lambda: CdfQuery(lo=0.5, hi=0.2),
            lambda: GroupQuery(by="vendor"),
            lambda: PlacementQuery(demand_fraction=1.5),
            lambda: PlacementQuery(policy="greedy"),
            lambda: PlacementQuery(servers=0),
            lambda: CapQuery(),
            lambda: CapQuery(power_cap_w=-1.0),
            lambda: ReplayQuery(steps=2),
            lambda: ReplayQuery(servers=0),
            lambda: SweepQuery(server=9),
            lambda: RunAllQuery(on_error="shrug"),
            lambda: ValidateQuery(),
        ],
    )
    def test_bad_field_values_raise(self, build):
        with pytest.raises(ValueError):
            build()


#: One mistyped wire payload per family (and per kind of mistake):
#: bools for numbers, floats for ints, strings for numbers, nulls for
#: non-Optional fields.
MISTYPED = [
    ({"family": "list", "seed": "2016"}, "seed"),
    ({"family": "artifact", "artifact_id": 3}, "artifact_id"),
    ({"family": "stats", "hw_year_min": 2013.0}, "hw_year_min"),
    ({"family": "stats", "metric": None}, "metric"),
    ({"family": "cdf", "lo": "0.1", "hi": 0.5}, "lo"),
    ({"family": "cdf", "lo": 0.1, "hi": True}, "hi"),
    ({"family": "group", "by": ["family"]}, "by"),
    ({"family": "placement", "servers": True}, "servers"),
    ({"family": "placement", "servers": 2.5}, "servers"),
    ({"family": "placement", "demand_fraction": "0.5"}, "demand_fraction"),
    ({"family": "placement", "power_off_unused": 1}, "power_off_unused"),
    ({"family": "cap", "power_cap_w": "500", "servers": 20}, "power_cap_w"),
    ({"family": "cap", "power_cap_w": 500.0, "servers": False}, "servers"),
    ({"family": "replay", "steps": 4.5}, "steps"),
    ({"family": "replay", "servers": None}, "servers"),
    ({"family": "sweep", "server": 4.0}, "server"),
    ({"family": "ensemble", "seeds": "5"}, "seeds"),
    ({"family": "ensemble", "per_seed": "yes"}, "per_seed"),
    ({"family": "generate", "out": None}, "out"),
    ({"family": "validate", "path": 7}, "path"),
    ({"family": "report", "out": 1}, "out"),
    ({"family": "run_all", "retry": 1.5}, "retry"),
    ({"family": "run_all", "timeout_s": "30"}, "timeout_s"),
    ({"family": "cache", "cache_dir": 0}, "cache_dir"),
]


class TestFieldTypes:
    def test_every_family_has_a_mistyped_case(self):
        assert {payload["family"] for payload, _ in MISTYPED} == set(FAMILIES)

    @pytest.mark.parametrize(
        "payload, field",
        MISTYPED,
        ids=[f"{payload['family']}-{field}" for payload, field in MISTYPED],
    )
    def test_mistyped_field_is_a_value_error(self, payload, field):
        with pytest.raises(ValueError, match=field):
            request_from_dict(payload)

    @pytest.mark.parametrize(
        "wire",
        [
            '{"family": "cap", "power_cap_w": Infinity, "servers": 20}',
            '{"family": "cap", "power_cap_w": NaN, "servers": 20}',
            '{"family": "cdf", "lo": -Infinity, "hi": 0.5}',
            '{"family": "cdf", "lo": 0.1, "hi": Infinity}',
            '{"family": "placement", "demand_fraction": NaN}',
            '{"family": "run_all", "timeout_s": Infinity}',
        ],
    )
    def test_non_finite_floats_rejected(self, wire):
        with pytest.raises(ValueError, match="finite"):
            request_from_dict(json.loads(wire))

    @pytest.mark.parametrize("family", ["list", "stats", "cdf", "placement"])
    def test_negative_seed_names_the_field(self, family):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            request_from_dict({"family": family, "seed": -1})
        assert request_from_dict({"family": family, "seed": 2**70}).seed == 2**70

    def test_well_typed_values_are_kept_verbatim(self):
        # An int is a valid float and None a valid Optional; neither is
        # coerced, so the spec key is exactly what was sent.
        cap = request_from_dict(
            {"family": "cap", "power_cap_w": 500, "servers": 20}
        )
        assert type(cap.power_cap_w) is int
        assert '"power_cap_w":500,' in canonical_spec(cap)
        cdf = request_from_dict({"family": "cdf", "lo": 0, "hi": 1})
        assert '"hi":1,"lo":0,' in canonical_spec(cdf)
        assert StatsQuery(hw_year_min=None).hw_year_min is None
        assert RunAllQuery(timeout_s=30).timeout_s == 30


class TestWireForm:
    def test_round_trip_through_to_dict(self):
        request = ReplayQuery(servers=30, steps=8, policy="pack-to-full")
        assert request_from_dict(request.to_dict()) == request

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown query family"):
            request_from_dict({"family": "bogus"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            request_from_dict({"family": "stats", "metricc": "ep"})

    def test_run_all_has_no_jobs_field(self):
        with pytest.raises(ValueError, match=r"unknown field.*'jobs'"):
            request_from_dict({"family": "run_all", "jobs": 2})

    def test_missing_family_rejected(self):
        with pytest.raises(ValueError):
            request_from_dict({"metric": "ep"})


class TestIdentity:
    def test_spec_excludes_format_and_backend(self):
        base = ReplayQuery(servers=30, steps=8)
        variant = ReplayQuery(servers=30, steps=8, format="json")
        assert canonical_spec(variant) == canonical_spec(base)
        assert spec_suffix(variant) == spec_suffix(base)
        # the engine that serves a request is provenance, never identity
        assert canonical_spec(base) == (
            '{"family":"replay","hw_year_max":2016,"hw_year_min":2016,'
            '"policy":"ep-aware","power_off_unused":false,"seed":2016,'
            '"servers":30,"steps":8}'
        )

    def test_spec_tracks_identity_fields(self):
        assert canonical_spec(ReplayQuery(steps=8)) != canonical_spec(
            ReplayQuery(steps=12)
        )
        assert canonical_spec(StatsQuery(seed=1)) != canonical_spec(
            StatsQuery(seed=2)
        )

    def test_canonical_spec_is_canonical_json(self):
        document = json.loads(canonical_spec(StatsQuery()))
        assert document["family"] == "stats"
        assert "format" not in document
        assert "fleet_backend" not in document

    def test_artifact_suffix_is_the_bare_artifact_id(self):
        # so figure queries share disk-cache entries with run_all
        assert spec_suffix(ArtifactQuery(artifact_id="fig3")) == "fig3"

    def test_other_suffixes_are_namespaced(self):
        suffix = spec_suffix(StatsQuery())
        assert suffix.startswith("api:stats:")

    def test_base_class_defaults(self):
        assert QueryRequest.servable and QueryRequest.cacheable
