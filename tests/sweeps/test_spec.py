"""SweepSpec validation, expansion and derivation."""

import pytest

from repro.core.config import DEFAULT_CONFIG, SimConfig
from repro.sweeps import (
    PRESETS,
    SweepSpec,
    coerce_axis_value,
    validate_axis,
)


def spec_of(axes, **kwargs):
    return SweepSpec.of("t", axes, **kwargs)


class TestAxisValidation:
    def test_reserved_and_config_axes_accepted(self):
        for axis in ("workload", "engine", "policy", "seed", "ftq_depth",
                     "cache_banks", "l2_kb"):
            assert validate_axis(axis) == axis

    def test_unknown_axis_suggests_close_match(self):
        with pytest.raises(ValueError, match="ftq_depth"):
            validate_axis("ftq_dpeth")

    def test_unknown_axis_lists_reserved(self):
        with pytest.raises(ValueError, match="workload"):
            validate_axis("zzzzz")

    def test_unknown_workload_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="2_ILP"):
            spec_of({"workload": ("9_NOPE",)})

    def test_tuple_workloads_skip_name_validation(self):
        spec = spec_of({"workload": (("gzip",), ("gzip", "twolf"))})
        assert spec.n_cells() == 2

    def test_bad_policy_rejected_at_build(self):
        with pytest.raises(ValueError, match="policy"):
            spec_of({"policy": ("ICOUNT.8",)})

    def test_unknown_engine_rejected_at_build(self):
        with pytest.raises(ValueError, match="unknown engine 'foo'; "
                           r"engines are gshare\+BTB, gskew\+FTB, stream"):
            spec_of({"engine": ("stream", "foo")})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            spec_of({"ftq_depth": ()})

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec("t", (("seed", (0,)), ("seed", (1,))))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            spec_of({"seed": (0,)}, metric="flops")

    def test_baseline_must_name_swept_axis(self):
        with pytest.raises(ValueError, match="does not vary"):
            spec_of({"ftq_depth": (1, 2)}, baseline={"cache_banks": 8})

    def test_baseline_value_must_be_declared(self):
        with pytest.raises(ValueError, match="not among"):
            spec_of({"ftq_depth": (1, 2)}, baseline={"ftq_depth": 4})

    def test_baseline_cannot_pin_seed(self):
        with pytest.raises(ValueError, match="seed"):
            spec_of({"seed": (0, 1)}, baseline={"seed": 0})


class TestExpansion:
    def test_cross_product_in_declaration_order(self):
        spec = spec_of({"ftq_depth": (1, 2), "cache_banks": (4, 8)})
        points = spec.points()
        assert points == [
            {"ftq_depth": 1, "cache_banks": 4},
            {"ftq_depth": 1, "cache_banks": 8},
            {"ftq_depth": 2, "cache_banks": 4},
            {"ftq_depth": 2, "cache_banks": 8},
        ]
        assert spec.n_cells() == 4

    def test_design_key_excludes_seed(self):
        spec = spec_of({"ftq_depth": (1, 2), "seed": (0, 1, 2)})
        keys = {spec.design_key(p) for p in spec.points()}
        assert keys == {(("ftq_depth", 1),), (("ftq_depth", 2),)}
        assert spec.n_cells() == 6

    def test_point_config_applies_field_and_seed_axes(self):
        spec = spec_of({"ftq_depth": (2,), "seed": (7,),
                        "engine": ("stream",)})
        cfg = spec.point_config(spec.points()[0])
        assert cfg == DEFAULT_CONFIG.with_(ftq_depth=2, seed=7)

    def test_point_config_respects_base_config(self):
        base = SimConfig(l2_kb=512)
        spec = spec_of({"ftq_depth": (2,)}, base_config=base)
        assert spec.point_config(spec.points()[0]).l2_kb == 512


class TestDerivation:
    def test_with_seeds_replaces_seed_axis(self):
        spec = spec_of({"ftq_depth": (1, 2)}).with_seeds(3)
        assert spec.axis_values()["seed"] == (0, 1, 2)
        assert spec.n_cells() == 6
        assert spec.with_seeds(2).axis_values()["seed"] == (0, 1)

    def test_with_seeds_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spec_of({"ftq_depth": (1,)}).with_seeds(0)

    def test_with_axis_overrides_in_place(self):
        spec = PRESETS["ftq_depth"].with_axis("ftq_depth", (1, 16))
        assert spec.axis_values()["ftq_depth"] == (1, 16)
        # The preset itself is untouched (frozen).
        assert PRESETS["ftq_depth"].axis_values()["ftq_depth"] \
            == (1, 2, 4, 8)

    def test_baseline_defaults_to_first_values(self):
        spec = spec_of({"ftq_depth": (4, 1), "seed": (0, 1)})
        assert spec.baseline_key() == (("ftq_depth", 4),)

    def test_baseline_pin_overrides_default(self):
        spec = spec_of({"ftq_depth": (4, 1)}, baseline={"ftq_depth": 1})
        assert spec.baseline_key() == (("ftq_depth", 1),)


class TestCoercion:
    def test_reserved_string_axes(self):
        assert coerce_axis_value("workload", "2_MIX") == "2_MIX"
        assert coerce_axis_value("policy", "ICOUNT.1.8") == "ICOUNT.1.8"

    def test_config_axes_are_integers(self):
        assert coerce_axis_value("ftq_depth", "8") == 8
        assert coerce_axis_value("seed", "3") == 3

    def test_non_integer_config_value_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            coerce_axis_value("ftq_depth", "deep")


class TestPresets:
    def test_all_presets_expand(self):
        for name, spec in PRESETS.items():
            assert spec.name == name
            assert spec.n_cells() >= 3
            assert spec.points()
            assert spec.description

    def test_presets_have_resolvable_baselines(self):
        for spec in PRESETS.values():
            keys = {spec.design_key(p) for p in spec.points()}
            assert spec.baseline_key() in keys
