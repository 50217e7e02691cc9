"""Building predictors from configuration objects or compact spec strings.

The spec-string grammar gives examples and CLI-ish callers a terse way to
name any predictor the paper evaluates::

    btb                            ideal BTB with 2bc update
    btb:update=always              standard BTB
    btb:entries=512,assoc=4        constrained BTB
    twolevel:p=3                   unconstrained-table practical two-level
    twolevel:p=3,entries=1024,assoc=4
    twolevel:p=6,s=31,h=2,precision=full,address=concat,entries=none
    hybrid:p1=3,p2=1,entries=1024,assoc=4
    hybrid:p1=3,p2=1,entries=512,assoc=tagless,meta=bpst

Keys map one-to-one onto the fields of the config dataclasses; unknown keys
raise :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from typing import Dict, Union

from ..errors import ConfigError
from .base import IndirectBranchPredictor
from .btb import BranchTargetBuffer
from .config import BTBConfig, HybridConfig, PredictorConfig, TwoLevelConfig
from .hybrid import HybridPredictor
from .twolevel import TwoLevelPredictor


def build_predictor(config: PredictorConfig) -> IndirectBranchPredictor:
    """Instantiate the predictor described by ``config``."""
    if isinstance(config, BTBConfig):
        return BranchTargetBuffer(config)
    if isinstance(config, TwoLevelConfig):
        return TwoLevelPredictor(config)
    if isinstance(config, HybridConfig):
        return HybridPredictor(config)
    raise ConfigError(f"unknown predictor configuration type: {type(config).__name__}")


def _parse_value(raw: str) -> Union[int, str, None]:
    if raw == "none":
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


#: Spec fields that take an integer (``entries`` also takes ``none``;
#: a hybrid's ``p1``, ``p2``, ... are integers too).
_INTEGER_FIELDS = {"p", "s", "h", "budget", "low_bit", "confidence", "entries"}


def _parse_fields(body: str) -> Dict[str, Union[int, str, None]]:
    fields: Dict[str, Union[int, str, None]] = {}
    if not body:
        return fields
    for item in body.split(","):
        if "=" not in item:
            raise ConfigError(f"malformed spec field {item!r}; expected key=value")
        key, _, raw = item.partition("=")
        key, raw = key.strip(), raw.strip()
        value = _parse_value(raw)
        integer = key in _INTEGER_FIELDS or (key[:1] == "p" and key[1:].isdigit())
        if integer and not isinstance(value, int) and not (
                key == "entries" and value is None):
            raise ConfigError(f"spec field {key!r} takes an integer, got {raw!r}")
        fields[key] = value
    return fields


_BTB_KEYS = {"entries": "num_entries", "assoc": "associativity", "update": "update_rule"}
_TWOLEVEL_KEYS = {
    "p": "path_length",
    "s": "history_sharing",
    "h": "table_sharing",
    "precision": "precision",
    "budget": "pattern_budget",
    "low_bit": "low_bit",
    "compression": "compression",
    "address": "address_mode",
    "interleave": "interleave",
    "entries": "num_entries",
    "assoc": "associativity",
    "update": "update_rule",
    "confidence": "confidence_bits",
}


def config_from_spec(spec: str) -> PredictorConfig:
    """Parse a compact spec string into a predictor configuration."""
    family, _, body = spec.partition(":")
    family = family.strip().lower()
    fields = _parse_fields(body.strip())

    if family == "btb":
        kwargs = {}
        for key, value in fields.items():
            if key not in _BTB_KEYS:
                raise ConfigError(f"unknown btb spec field {key!r}")
            kwargs[_BTB_KEYS[key]] = value
        return BTBConfig(**kwargs)

    if family == "twolevel":
        kwargs = {}
        for key, value in fields.items():
            if key not in _TWOLEVEL_KEYS:
                raise ConfigError(f"unknown twolevel spec field {key!r}")
            kwargs[_TWOLEVEL_KEYS[key]] = value
        return TwoLevelConfig(**kwargs)

    if family == "hybrid":
        paths = []
        meta = "confidence"
        component_fields: Dict[str, Union[int, str, None]] = {}
        for key, value in fields.items():
            if key.startswith("p") and key[1:].isdigit():
                paths.append((int(key[1:]), value))
            elif key == "meta":
                meta = str(value)
            elif key in _TWOLEVEL_KEYS:
                component_fields[_TWOLEVEL_KEYS[key]] = value
            else:
                raise ConfigError(f"unknown hybrid spec field {key!r}")
        if len(paths) < 2:
            raise ConfigError(
                f"hybrid spec needs at least p1 and p2 path lengths, got {spec!r}"
            )
        paths.sort()
        components = tuple(
            TwoLevelConfig(path_length=int(path), **component_fields)  # type: ignore[arg-type]
            for _, path in paths
        )
        return HybridConfig(components=components, metapredictor=meta)

    raise ConfigError(
        f"unknown predictor family {family!r}; expected btb, twolevel, or hybrid"
    )


def predictor_from_spec(spec: str) -> IndirectBranchPredictor:
    """One-step convenience: parse a spec string and build the predictor."""
    return build_predictor(config_from_spec(spec))
