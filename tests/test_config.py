"""Strict JSON config parsing: every failure must name the field."""

import json
import math

import pytest

from partid.config import (ExperimentConfig, RiskDemoConfig, parse_config)
from partid.errors import ConfigError
from partid.partitions import HalfSpace, Threshold
from partid.spef import Family


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


BASE = {
    "arms": [{"family": "gaussian", "variance": 1.0},
             {"family": "gaussian", "variance": 1.0}],
    "true_means": [2.0, 0.0],
    "partition": {"type": "threshold", "u": 1.0},
}

RISK_BASE = {
    "n_outer": 10,
    "horizon": 5,
    "u": 2.0,
    "inner_delta": 0.05,
    "factor_model": {"volatility": 1.0},
}


class TestExperimentParsing:
    def test_minimal_document_fills_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.deltas == (0.1,)
        assert cfg.replications == 100
        assert cfg.seed == 0
        assert cfg.max_steps == 1_000_000
        assert cfg.c_const == math.e
        assert cfg.parallelism == 1
        assert isinstance(cfg.partition, Threshold)
        assert len(cfg.digest) == 16

    def test_full_document(self, tmp_path):
        data = dict(BASE, deltas=[0.1, 0.01], replications=7, seed=42,
                    max_steps=500, c_const=2.0, parallelism=3)
        data["arms"] = [{"family": "bernoulli"}, {"family": "poisson"}]
        data["true_means"] = [0.3, 1.5]
        data["partition"] = {"type": "halfspace", "a": [1.0, 1.0], "b": 3.0}
        cfg = parse_config(write_config(tmp_path, data))
        assert cfg.arms[0].family is Family.BERNOULLI
        assert cfg.arms[1].family is Family.POISSON
        assert isinstance(cfg.partition, HalfSpace)
        assert cfg.deltas == (0.1, 0.01)
        assert cfg.replications == 7
        assert cfg.parallelism == 3

    def test_digest_tracks_content_not_formatting(self, tmp_path):
        a = parse_config(write_config(tmp_path, BASE, "a.json"))
        pretty = tmp_path / "b.json"
        pretty.write_text(json.dumps(BASE, indent=4, sort_keys=True))
        b = parse_config(str(pretty))
        assert a.digest == b.digest
        c = parse_config(write_config(tmp_path, dict(BASE, seed=1),
                                      "c.json"))
        assert c.digest != a.digest

    def test_with_seed_keeps_rest(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        other = cfg.with_seed(99)
        assert other.seed == 99
        assert other.arms == cfg.arms

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(extra_field=1), "extra_field"),
        (lambda d: d.update(arms=[]), "arms"),
        (lambda d: d.update(true_means=[2.0]), "true_means"),
        (lambda d: d.update(true_means=[2.0, "x"]), "true_means[1]"),
        (lambda d: d.update(deltas=[]), "deltas"),
        (lambda d: d.update(deltas=[0.5, 1.5]), "deltas[1]"),
        (lambda d: d.update(replications=0), "replications"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(parallelism=0), "parallelism"),
        (lambda d: d.update(c_const=0.0), "c_const"),
        (lambda d: d.update(partition={"type": "wedge"}), "partition"),
        # below the two first pulls, one per arm
        (lambda d: d.update(max_steps=1), "max_steps: must be >= 2"),
    ])
    def test_field_errors_name_the_path(self, tmp_path, mutate, needle):
        data = json.loads(json.dumps(BASE))
        mutate(data)
        with pytest.raises(ConfigError, match=needle.replace("[", r"\[")):
            parse_config(write_config(tmp_path, data))

    def test_arm_validation(self, tmp_path):
        data = json.loads(json.dumps(BASE))
        data["arms"][1] = {"family": "cauchy"}
        with pytest.raises(ConfigError, match=r"arms\[1\].family"):
            parse_config(write_config(tmp_path, data))

        data["arms"][1] = {"family": "bernoulli", "variance": 1.0}
        with pytest.raises(ConfigError, match=r"arms\[1\].variance"):
            parse_config(write_config(tmp_path, data))

        data["arms"][1] = {"family": "gaussian", "variance": 0.0}
        with pytest.raises(ConfigError, match="> 0"):
            parse_config(write_config(tmp_path, data))

    def test_mean_outside_family_domain(self, tmp_path):
        data = json.loads(json.dumps(BASE))
        data["arms"] = [{"family": "bernoulli"}, {"family": "bernoulli"}]
        data["true_means"] = [0.5, 1.2]
        data["partition"] = {"type": "threshold", "u": 0.6}
        with pytest.raises(ConfigError, match=r"true_means\[1\]"):
            parse_config(write_config(tmp_path, data))

    def test_partition_dimension_mismatch(self, tmp_path):
        data = json.loads(json.dumps(BASE))
        data["partition"] = {"type": "halfspace", "a": [1.0, 1.0, 1.0],
                             "b": 1.0}
        with pytest.raises(ConfigError, match="dimension 3"):
            parse_config(write_config(tmp_path, data))

    def test_means_on_partition_boundary(self, tmp_path):
        data = json.loads(json.dumps(BASE))
        data["true_means"] = [1.0, 0.0]
        with pytest.raises(ConfigError, match="boundary"):
            parse_config(write_config(tmp_path, data))


class TestRiskParsing:
    def test_dispatch_on_n_outer(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, RISK_BASE))
        assert isinstance(cfg, RiskDemoConfig)
        assert cfg.volatility == 1.0
        assert cfg.payoff == "identity"
        assert cfg.inner_delta == 0.05

    def test_zero_volatility_allowed(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, dict(RISK_BASE, factor_model={"volatility": 0.0})))
        assert cfg.volatility == 0.0

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.pop("horizon"), "horizon"),
        (lambda d: d.update(inner_delta=1.0), "inner_delta"),
        (lambda d: d.update(payoff="squared"), "payoff"),
        (lambda d: d.update(factor_model={"volatility": -1.0}),
         "factor_model.volatility"),
        (lambda d: d.update(factor_model={"vol": 1.0}), "factor_model.vol"),
        (lambda d: d.update(arms=[]), "arms"),
        # below the five first pulls of each inner run
        (lambda d: d.update(max_steps=4), "max_steps: must be >= 5"),
    ])
    def test_risk_field_errors(self, tmp_path, mutate, needle):
        data = json.loads(json.dumps(RISK_BASE))
        mutate(data)
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            parse_config(write_config(tmp_path, data))


class TestFileLevelErrors:
    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/cfg.json")

    def test_invalid_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"arms": [}')
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(str(p))

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            parse_config(str(p))
