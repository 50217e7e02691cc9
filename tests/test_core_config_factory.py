"""Unit tests for predictor configs, spec parsing, and the factory."""

import pytest

from repro.core import (
    BranchTargetBuffer,
    BTBConfig,
    HybridConfig,
    HybridPredictor,
    TwoLevelConfig,
    TwoLevelPredictor,
    build_predictor,
    config_from_spec,
    predictor_from_spec,
)
from repro.errors import ConfigError


class TestBTBConfig:
    def test_defaults_are_ideal_2bc(self):
        config = BTBConfig()
        assert config.num_entries is None
        assert config.update_rule == "2bc"
        assert "btb-2bc(inf)" == config.label

    def test_validation(self):
        with pytest.raises(ConfigError):
            BTBConfig(num_entries=100)          # not a power of two
        with pytest.raises(ConfigError):
            BTBConfig(num_entries=64, associativity=128)
        with pytest.raises(ConfigError):
            BTBConfig(update_rule="never")


class TestTwoLevelConfig:
    def test_auto_precision_follows_budget(self):
        assert TwoLevelConfig(path_length=6).bits_per_target == 4
        assert TwoLevelConfig(path_length=2).bits_per_target == 12

    def test_full_precision(self):
        config = TwoLevelConfig(path_length=3, precision="full")
        assert config.bits_per_target == 32
        assert config.effective_low_bit == 0

    def test_explicit_precision(self):
        assert TwoLevelConfig(path_length=3, precision=5).bits_per_target == 5

    def test_unconstrained_preset(self):
        config = TwoLevelConfig.unconstrained(8)
        assert config.precision == "full"
        assert config.address_mode == "concat"
        assert config.num_entries is None

    def test_practical_preset(self):
        config = TwoLevelConfig.practical(3, 1024, 4)
        assert config.num_entries == 1024
        assert config.associativity == 4
        assert config.interleave == "reverse"
        assert config.address_mode == "xor"

    def test_presets_accept_overrides(self):
        config = TwoLevelConfig.practical(3, 1024, 4, update_rule="always")
        assert config.update_rule == "always"

    def test_configs_are_hashable_and_frozen(self):
        config = TwoLevelConfig.practical(3, 1024, 4)
        assert hash(config) == hash(TwoLevelConfig.practical(3, 1024, 4))
        with pytest.raises(Exception):
            config.path_length = 5  # type: ignore[misc]

    def test_validation(self):
        with pytest.raises(ConfigError):
            TwoLevelConfig(path_length=-1)
        with pytest.raises(ConfigError):
            TwoLevelConfig(interleave="diagonal")
        with pytest.raises(ConfigError):
            TwoLevelConfig(path_length=30)  # exceeds 24-bit budget
        with pytest.raises(ConfigError):
            TwoLevelConfig(precision=0)
        with pytest.raises(ConfigError):
            TwoLevelConfig(confidence_bits=0)


class TestFactory:
    def test_builds_each_family(self):
        assert isinstance(build_predictor(BTBConfig()), BranchTargetBuffer)
        assert isinstance(build_predictor(TwoLevelConfig()), TwoLevelPredictor)
        assert isinstance(
            build_predictor(HybridConfig.dual_path(1, 4, 256)), HybridPredictor
        )

    def test_rejects_unknown_config(self):
        with pytest.raises(ConfigError):
            build_predictor(object())  # type: ignore[arg-type]


class TestSpecParsing:
    def test_btb_specs(self):
        assert config_from_spec("btb") == BTBConfig()
        assert config_from_spec("btb:update=always").update_rule == "always"
        config = config_from_spec("btb:entries=512,assoc=4")
        assert config.num_entries == 512
        assert config.associativity == 4

    def test_twolevel_specs(self):
        config = config_from_spec("twolevel:p=3,entries=1024,assoc=4")
        assert isinstance(config, TwoLevelConfig)
        assert config.path_length == 3
        assert config.num_entries == 1024

    def test_twolevel_unconstrained_spec(self):
        config = config_from_spec(
            "twolevel:p=6,s=31,h=2,precision=full,address=concat,entries=none"
        )
        assert config.precision == "full"
        assert config.num_entries is None
        assert config.history_sharing == 31
        assert config.table_sharing == 2

    def test_tagless_spec(self):
        config = config_from_spec("twolevel:p=3,entries=512,assoc=tagless")
        assert config.associativity == "tagless"

    def test_hybrid_spec(self):
        config = config_from_spec("hybrid:p1=3,p2=1,entries=1024,assoc=4")
        assert isinstance(config, HybridConfig)
        assert tuple(c.path_length for c in config.components) == (3, 1)
        assert config.components[0].num_entries == 1024

    def test_hybrid_bpst_spec(self):
        config = config_from_spec("hybrid:p1=2,p2=5,entries=256,meta=bpst")
        assert config.metapredictor == "bpst"

    def test_predictor_from_spec(self):
        predictor = predictor_from_spec("twolevel:p=2,entries=256,assoc=2")
        assert isinstance(predictor, TwoLevelPredictor)

    def test_bad_specs_rejected(self):
        for spec in (
            "gshare",                       # unknown family
            "btb:ways=4",                   # unknown field
            "twolevel:p=3,flavour=mild",    # unknown field
            "hybrid:p1=3",                  # missing second path
            "btb:entries",                  # malformed field
            "twolevel:p=zz",                # non-integer numeric fields
            "twolevel:p=3,s=none",
            "twolevel:p=3,budget=big",
            "hybrid:p1=3,p2=x",
            "btb:entries=many",
        ):
            with pytest.raises(ConfigError):
                config_from_spec(spec)
