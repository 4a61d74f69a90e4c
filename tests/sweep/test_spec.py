"""Cell fingerprints, grid expansion, and spec-file loading."""

from __future__ import annotations

import json

import pytest

from repro.sweep.schemes import SCHEME_SPECS, SchemeSpec, resolve_scheme
from repro.sweep.spec import (
    CellSpec,
    GridSpec,
    check_cache_size,
    load_grid,
    tomllib,
    validate_cells,
)


class TestSchemeSpec:
    def test_name_mirrors_mrd_variants(self):
        assert SchemeSpec("MRD").name == "MRD"
        assert SchemeSpec("MRD", prefetch=False).name == "MRD-evict"
        assert SchemeSpec("MRD", evict=False).name == "MRD-prefetch"
        assert SchemeSpec("MRD", metric="job").name == "MRD-jobdist"
        assert SchemeSpec("MRD", mode="adhoc").name == "MRD-adhoc"
        assert SchemeSpec("LRU").name == "LRU"
        # Grid labels (and so cell fingerprints) rely on this.
        assert all(spec.name == name for name, spec in SCHEME_SPECS.items())

    @pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
    def test_built_scheme_carries_the_spec_name(self, name):
        """A sweep cell or ``mt run`` row labelled by the spec and a
        ``repro run`` of the built scheme print the same name."""
        assert SCHEME_SPECS[name].build().name == name

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme base"):
            SchemeSpec("ARC")

    def test_mrd_needs_evict_or_prefetch(self):
        with pytest.raises(ValueError, match="evict/prefetch"):
            SchemeSpec("MRD", evict=False, prefetch=False)

    def test_build_makes_fresh_instances(self):
        spec = SchemeSpec("MRD")
        a, b = spec.build(), spec.build()
        assert a is not b
        assert a.name == "MRD"

    def test_non_mrd_knobs_normalized_away(self):
        # LRU ignores MRD-only knobs, so they must not affect identity.
        assert SchemeSpec("LRU", mode="adhoc").to_dict() == SchemeSpec("LRU").to_dict()

    def test_round_trip(self):
        for spec in SCHEME_SPECS.values():
            assert SchemeSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scheme keys"):
            SchemeSpec.from_dict({"base": "LRU", "flavor": "mint"})

    def test_resolve_by_name_and_error(self):
        assert resolve_scheme("MRD-evict") == SchemeSpec("MRD", prefetch=False)
        assert resolve_scheme("mrd-EVICT") is SCHEME_SPECS["MRD-evict"]
        with pytest.raises(ValueError, match="unknown scheme"):
            resolve_scheme("MAGIC")


class TestFingerprint:
    def test_stable_across_instances(self):
        a = CellSpec(workload="SP", cache_fraction=0.4)
        b = CellSpec(workload="SP", cache_fraction=0.4)
        assert a.fingerprint() == b.fingerprint()

    def test_every_field_change_invalidates(self):
        base = CellSpec(workload="SP", cache_fraction=0.4)
        variants = [
            CellSpec(workload="KM", cache_fraction=0.4),
            CellSpec(workload="SP", cache_fraction=0.5),
            CellSpec(workload="SP", cache_mb=32.0),
            CellSpec(workload="SP", cache_fraction=0.4, scale=2.0),
            CellSpec(workload="SP", cache_fraction=0.4, iterations=3),
            CellSpec(workload="SP", cache_fraction=0.4, partitions=8),
            CellSpec(workload="SP", cache_fraction=0.4, scheduler="reference"),
            CellSpec(workload="SP", cache_fraction=0.4, cluster="test"),
            CellSpec(workload="SP", cache_fraction=0.4,
                     scheme_spec=SchemeSpec("MRD")),
            CellSpec(workload="SP", cache_fraction=0.4, control_plane="rpc",
                     control_latency=1.0),
            CellSpec(workload="SP", cache_fraction=0.4, profile_store=True),
            CellSpec(workload="SP", cache_fraction=0.4,
                     cluster_overrides=(("num_nodes", 2),)),
        ]
        prints = {v.fingerprint() for v in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)

    def test_label_differs_from_identity(self):
        # The display label is part of the identity on purpose: the same
        # scheme under two labels is two distinct result rows.
        a = CellSpec(workload="SP", scheme="A", scheme_spec=SchemeSpec("LRU"))
        b = CellSpec(workload="SP", scheme="B", scheme_spec=SchemeSpec("LRU"))
        assert a.fingerprint() != b.fingerprint()

    def test_instant_plane_zeroes_control_fields(self):
        # Control knobs are meaningless on the instant plane and must
        # not split fingerprints.
        a = CellSpec(workload="SP", control_jitter=0.5, control_seed=7)
        b = CellSpec(workload="SP")
        assert a.fingerprint() == b.fingerprint()

    def test_round_trip_preserves_fingerprint(self):
        cell = CellSpec(
            workload="KM", scheme_spec=SchemeSpec("MRD", metric="job"),
            cluster="test", cache_fraction=0.3, iterations=4,
            control_plane="rpc", control_latency=2.0,
        )
        again = CellSpec.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert again.fingerprint() == cell.fingerprint()

    def test_derived_control_seed_deterministic(self):
        cell = CellSpec(workload="SP", control_plane="rpc", control_latency=1.0)
        assert cell.derived_control_seed() == cell.derived_control_seed()
        pinned = CellSpec(workload="SP", control_plane="rpc",
                          control_latency=1.0, control_seed=42)
        assert pinned.derived_control_seed() == 42


class TestCellValidation:
    def test_needs_workload(self):
        with pytest.raises(ValueError, match="workload"):
            CellSpec(workload="")

    def test_needs_cache_size(self):
        with pytest.raises(ValueError, match="cache_fraction or cache_mb"):
            CellSpec(workload="SP", cache_fraction=None, cache_mb=None)

    def test_bad_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            CellSpec(workload="SP", scheduler="fifo")

    def test_bad_cluster_override(self):
        with pytest.raises(ValueError, match="unknown cluster override"):
            CellSpec(workload="SP", cluster_overrides=(("warp_factor", 9),))

    @pytest.mark.parametrize("fields", [
        {"cache_fraction": 0.0}, {"cache_fraction": -0.5},
        {"cache_fraction": float("nan")}, {"cache_mb": 0.0}, {"cache_mb": -16.0},
    ], ids=["fraction-0", "fraction-neg", "fraction-nan", "mb-0", "mb-neg"])
    def test_cache_size_must_be_positive(self, fields):
        with pytest.raises(ValueError, match="must be positive"):
            CellSpec(workload="SP", **fields)

    @pytest.mark.parametrize("fields", [
        {"control_loss": 1.5}, {"control_loss": -0.1},
        {"control_jitter": -1.0}, {"control_latency": -2.0},
    ], ids=["loss-high", "loss-neg", "jitter-neg", "latency-neg"])
    def test_rpc_fields_checked_as_rpc_config_checks_them(self, fields):
        with pytest.raises(ValueError, match="bad control-plane config"):
            CellSpec(workload="SP", control_plane="rpc", **fields)
        # On the instant plane the rpc fields are inert (to_dict drops
        # them), so they are not checked.
        CellSpec(workload="SP", **fields)

    def test_bad_churn_rate_names_the_churn_config(self):
        with pytest.raises(ValueError, match="bad churn config"):
            CellSpec(workload="SP", churn_rate=1.5)

    def test_validate_cells_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown workload"):
            validate_cells([CellSpec(workload="NOPE")])
        with pytest.raises(ValueError, match="unknown cluster"):
            validate_cells([CellSpec(workload="SP", cluster="moon")])
        validate_cells([CellSpec(workload="SP", cluster="test")])  # no raise


class TestCheckCacheSize:
    """The one positivity check behind ``CellSpec``, ``mt run`` and
    ``trace replay``: all three report a bad size in these words."""

    @pytest.mark.parametrize("fraction, mb", [(0.5, None), (None, 64.0), (None, None)])
    def test_accepts_a_positive_or_unset_size(self, fraction, mb):
        check_cache_size(fraction, mb)

    @pytest.mark.parametrize("fraction, mb, message", [
        (-1.0, None, "cache_fraction must be positive, got -1.0"),
        (0.5, float("nan"), "cache_mb must be positive, got nan"),
    ], ids=["fraction-neg", "mb-nan"])
    def test_names_the_field_and_the_value(self, fraction, mb, message):
        with pytest.raises(ValueError) as excinfo:
            check_cache_size(fraction, mb)
        assert str(excinfo.value) == message


class TestGridSpec:
    def test_empty_workloads_empty_grid(self):
        assert GridSpec().cells() == []

    def test_expansion_order_and_count(self):
        grid = GridSpec(
            workloads=["SP", "KM"], schemes=["LRU", "MRD"],
            cache_fractions=[0.3, 0.6],
        )
        cells = grid.cells()
        assert len(cells) == 8
        # Workload-major, then fraction, then scheme — deterministic.
        assert [c.workload for c in cells[:4]] == ["SP"] * 4
        assert [(c.cache_fraction, c.scheme) for c in cells[:4]] == [
            (0.3, "LRU"), (0.3, "MRD"), (0.6, "LRU"), (0.6, "MRD"),
        ]

    def test_expansion_is_deterministic(self):
        grid = GridSpec(workloads=["SP"], schemes=["LRU", "MRD"],
                        placements=["stride", "rendezvous"],
                        schedulers=["event", "reference"])
        prints = [c.fingerprint() for c in grid.cells()]
        assert prints == [c.fingerprint() for c in grid.cells()]
        assert len(set(prints)) == len(prints)

    def test_custom_labels(self):
        grid = GridSpec(
            workloads=["SP"],
            schemes=[("fancy", SchemeSpec("MRD")),
                     {"name": "plain", "base": "LRU"}],
        )
        assert [c.scheme for c in grid.cells()] == ["fancy", "plain"]

    def test_name_in_any_case_is_one_cell(self):
        lower, upper = GridSpec(workloads=["SP"], schemes=["mrd-adhoc", "MRD-adhoc"]).cells()
        assert lower.scheme == upper.scheme == "MRD-adhoc"
        assert lower.fingerprint() == upper.fingerprint()

    def test_from_dict_strict_keys(self):
        with pytest.raises(ValueError, match="unknown grid spec key"):
            GridSpec.from_dict({"workloads": ["SP"], "warp": 9})

    def test_seeds_is_not_an_axis(self):
        # Workload builders read no seed; heterogeneity_seed in
        # cluster_overrides is what varies a cell's randomness.
        with pytest.raises(ValueError, match="unknown grid spec key"):
            GridSpec.from_dict({"workloads": ["SP"], "seeds": [0, 1]})
        assert "seed" not in CellSpec(workload="SP").to_dict()

    def test_from_dict_scalar_coercion_and_alias(self):
        grid = GridSpec.from_dict(
            {"workloads": "SP", "fractions": 0.4, "schemes": "MRD"}
        )
        assert grid.workloads == ["SP"]
        assert grid.cache_fractions == [0.4]

    def test_from_dict_validates_schemes_and_schedulers(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            GridSpec.from_dict({"workloads": ["SP"], "schemes": ["MAGIC"]})
        with pytest.raises(ValueError, match="scheduler"):
            GridSpec.from_dict({"workloads": ["SP"], "schedulers": ["fifo"]})


class TestSpecFiles:
    def test_json_spec(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "workloads": ["SP"], "schemes": ["LRU", "MRD"], "fractions": [0.4],
        }))
        grid = load_grid(path)
        assert len(grid.cells()) == 2

    def test_json_spec_must_be_mapping(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="mapping"):
            load_grid(path)

    def test_bad_key_names_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"workloads": ["SP"], "warp": 9}))
        with pytest.raises(ValueError, match="grid.json"):
            load_grid(path)

    @pytest.mark.skipif(tomllib is None, reason="tomllib needs Python >= 3.11")
    def test_toml_spec(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            'workloads = ["SP"]\nschemes = ["LRU", "MRD"]\nfractions = [0.4]\n'
        )
        grid = load_grid(path)
        assert len(grid.cells()) == 2
