"""JSON experiment configuration: strict parsing and validation.

One document describes either a Monte Carlo experiment (arms, ground-truth
means, partition, confidence levels) or the nested-simulation risk demo
(detected by the presence of "n_outer"). Parsing is strict: unknown fields
are rejected and every diagnostic names the offending field path, so a typo
fails loudly instead of silently running with a default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import ConfigError
from .lb_solvers import covers
from .partitions import PartitionSpec, Side, classify, dimension, from_dict
from .spef import SpefModel, bernoulli, gaussian, mean_domain, poisson

_EXPERIMENT_FIELDS = {
    "arms", "true_means", "partition", "deltas", "replications", "seed",
    "max_steps", "c_const", "parallelism",
}
_RISK_FIELDS = {
    "n_outer", "horizon", "u", "inner_delta", "factor_model", "payoff",
    "seed", "max_steps", "c_const", "parallelism",
}
_FAMILY_BUILDERS = {"gaussian": gaussian, "bernoulli": bernoulli,
                    "poisson": poisson}


@dataclass(frozen=True)
class ExperimentConfig:
    arms: tuple[SpefModel, ...]
    true_means: tuple[float, ...]
    partition: PartitionSpec
    deltas: tuple[float, ...] = (0.1,)
    replications: int = 100
    seed: int = 0
    max_steps: int = 1_000_000
    c_const: float = math.e
    parallelism: int = 1
    digest: str = ""

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class RiskDemoConfig:
    n_outer: int
    horizon: int
    u: float
    inner_delta: float
    volatility: float
    payoff: str = "identity"
    seed: int = 0
    max_steps: int = 1_000_000
    c_const: float = math.e
    parallelism: int = 1
    digest: str = ""

    def with_seed(self, seed: int) -> "RiskDemoConfig":
        return replace(self, seed=seed)


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(data: dict, key: str, path: str, *, default=None,
            minimum=None, maximum=None, strict_min=False,
            strict_max=False) -> float:
    if key not in data:
        if default is None:
            _fail(path, "required field is missing")
        return default
    v = data[key]
    if not _is_number(v) or not math.isfinite(v):
        _fail(path, f"expected a finite number, got {v!r}")
    v = float(v)
    if minimum is not None and (v <= minimum if strict_min else v < minimum):
        _fail(path, f"must be {'>' if strict_min else '>='} {minimum}, got {v}")
    if maximum is not None and (v >= maximum if strict_max else v > maximum):
        _fail(path, f"must be {'<' if strict_max else '<='} {maximum}, got {v}")
    return v


def _integer(data: dict, key: str, path: str, *, default=None,
             minimum=None, maximum=None) -> int:
    if key not in data:
        if default is None:
            _fail(path, "required field is missing")
        return default
    v = data[key]
    if not isinstance(v, int) or isinstance(v, bool):
        _fail(path, f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        _fail(path, f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        _fail(path, f"must be <= {maximum}, got {v}")
    return v


def _reject_unknown(data: dict, allowed: set, where: str):
    unknown = sorted(set(data) - allowed)
    if unknown:
        _fail(where + unknown[0] if where else unknown[0],
              "unknown field (strict schema; check for typos)")


def _parse_arm(entry: Any, path: str) -> SpefModel:
    if not isinstance(entry, dict):
        _fail(path, f"expected an object, got {type(entry).__name__}")
    _reject_unknown(entry, {"family", "variance"}, path + ".")
    family = entry.get("family")
    if family not in _FAMILY_BUILDERS:
        _fail(path + ".family",
              f"expected one of {sorted(_FAMILY_BUILDERS)}, got {family!r}")
    if family != "gaussian" and "variance" in entry:
        _fail(path + ".variance", f"not a parameter of the {family} family")
    if family == "gaussian":
        variance = _number(entry, "variance", path + ".variance",
                           default=1.0, minimum=0.0, strict_min=True)
        return gaussian(variance)
    return _FAMILY_BUILDERS[family]()


def _parse_experiment(data: dict, digest: str) -> ExperimentConfig:
    _reject_unknown(data, _EXPERIMENT_FIELDS, "")

    arms_raw = data.get("arms")
    if not isinstance(arms_raw, list) or not arms_raw:
        _fail("arms", "expected a non-empty list of arm descriptors")
    arms = tuple(_parse_arm(e, f"arms[{i}]") for i, e in enumerate(arms_raw))

    means_raw = data.get("true_means")
    if not isinstance(means_raw, list) or not means_raw:
        _fail("true_means", "expected a non-empty list of numbers")
    if len(means_raw) != len(arms):
        _fail("true_means",
              f"length {len(means_raw)} does not match {len(arms)} arms")
    means = []
    for i, v in enumerate(means_raw):
        if not _is_number(v) or not math.isfinite(v):
            _fail(f"true_means[{i}]", f"expected a finite number, got {v!r}")
        lo, hi = mean_domain(arms[i])
        if not lo < v < hi:
            _fail(f"true_means[{i}]",
                  f"{v} is outside the open {arms[i].family.value} mean "
                  f"domain ({lo}, {hi})")
        means.append(float(v))

    part_raw = data.get("partition")
    if not isinstance(part_raw, dict):
        _fail("partition", "expected a partition object")
    try:
        spec = from_dict(part_raw)
    except (ValueError, TypeError, KeyError) as e:
        _fail("partition", str(e))
    dim = dimension(spec)
    if dim is not None and dim != len(arms):
        _fail("partition",
              f"constraint dimension {dim} does not match {len(arms)} arms")
    side = classify(spec, np.array(means))
    if side is Side.BOUNDARY:
        _fail("true_means", "lies exactly on the partition boundary")
    if not covers(spec, side):
        _fail("true_means", f"on side {side.value}, which solvers do not cover")

    deltas_raw = data.get("deltas", [0.1])
    if not isinstance(deltas_raw, list) or not deltas_raw:
        _fail("deltas", "expected a non-empty list of numbers in (0, 1)")
    deltas = []
    for i, v in enumerate(deltas_raw):
        if not _is_number(v) or not (0.0 < v < 1.0):
            _fail(f"deltas[{i}]", f"expected a number in (0, 1), got {v!r}")
        deltas.append(float(v))

    return ExperimentConfig(
        arms=arms,
        true_means=tuple(means),
        partition=spec,
        deltas=tuple(deltas),
        replications=_integer(data, "replications", "replications",
                              default=100, minimum=1),
        seed=_integer(data, "seed", "seed", default=0, minimum=0,
                      maximum=2 ** 64 - 1),
        # a run pulls every arm once before it can stop
        max_steps=_integer(data, "max_steps", "max_steps",
                           default=1_000_000, minimum=len(arms)),
        c_const=_number(data, "c_const", "c_const", default=math.e,
                        minimum=0.0, strict_min=True),
        parallelism=_integer(data, "parallelism", "parallelism",
                             default=1, minimum=1),
        digest=digest,
    )


def _parse_risk(data: dict, digest: str) -> RiskDemoConfig:
    _reject_unknown(data, _RISK_FIELDS, "")

    fm = data.get("factor_model")
    if not isinstance(fm, dict):
        _fail("factor_model", "expected an object with a volatility field")
    _reject_unknown(fm, {"volatility"}, "factor_model.")
    vol = _number(fm, "volatility", "factor_model.volatility", minimum=0.0)

    payoff = data.get("payoff", "identity")
    if payoff != "identity":
        _fail("payoff", f'only "identity" is implemented, got {payoff!r}')

    n_outer = _integer(data, "n_outer", "n_outer", minimum=1)
    horizon = _integer(data, "horizon", "horizon", minimum=1)
    return RiskDemoConfig(
        n_outer=n_outer,
        horizon=horizon,
        u=_number(data, "u", "u"),
        inner_delta=_number(data, "inner_delta", "inner_delta",
                            minimum=0.0, maximum=1.0, strict_min=True,
                            strict_max=True),
        volatility=vol,
        payoff=payoff,
        seed=_integer(data, "seed", "seed", default=0, minimum=0,
                      maximum=2 ** 64 - 1),
        # each inner run pulls all horizon arms once before it can stop
        max_steps=_integer(data, "max_steps", "max_steps",
                           default=1_000_000, minimum=horizon),
        c_const=_number(data, "c_const", "c_const", default=math.e,
                        minimum=0.0, strict_min=True),
        parallelism=_integer(data, "parallelism", "parallelism",
                             default=1, minimum=1),
        digest=digest,
    )


def parse_config(path: str):
    """Load and validate a config file.

    Returns an ExperimentConfig, or a RiskDemoConfig when the document
    contains "n_outer". Raises ConfigError with a field path (or line and
    column for syntax errors) on any problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e.strerror or e}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: "
            f"{e.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    digest = hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]

    if "n_outer" in data:
        return _parse_risk(data, digest)
    return _parse_experiment(data, digest)
