"""Frozen configuration dataclasses for every predictor family.

Configurations are immutable and validated at construction, so a predictor
built from a config is guaranteed internally consistent.  The parameter
names follow the paper:

========  =======================================================
``p``     path length (targets kept in the history pattern)
``s``     history sharing — branches with equal ``pc >> s`` share
          a history register (31 = one global register)
``h``     history table sharing — branches with equal ``pc >> h``
          share a history table (2 = per-branch tables)
``b``     bits kept per target in the pattern (section 4.1)
========  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

from ..errors import ConfigError
from .bits import (
    ADDRESS_BITS,
    DEFAULT_LOW_BIT,
    PATTERN_BIT_BUDGET,
    bits_per_element,
)
from .history import COMPRESSION_SCHEMES
from .keys import ADDRESS_MODES
from .tables import UPDATE_RULES

#: Associativity may be an int way-count, "full", or "tagless".
Associativity = Union[int, str]

#: Precision may be an explicit bit count, "full" (whole addresses), or
#: "auto" (largest b with b * p <= 24, the paper's rule).
Precision = Union[int, str]


def _validate_associativity(num_entries: Optional[int], associativity: Associativity) -> None:
    if isinstance(associativity, str):
        if associativity not in ("full", "tagless"):
            raise ConfigError(
                f"associativity must be an int, 'full' or 'tagless'; got {associativity!r}"
            )
        return
    if not isinstance(associativity, int) or associativity < 1:
        raise ConfigError(f"associativity must be a positive int, got {associativity!r}")
    if num_entries is not None and associativity > num_entries:
        raise ConfigError(
            f"associativity {associativity} exceeds table size {num_entries}"
        )


def _validate_entries(num_entries: Optional[int]) -> None:
    if num_entries is None:
        return
    if num_entries < 1 or (num_entries & (num_entries - 1)) != 0:
        raise ConfigError(f"table size must be a power of two, got {num_entries}")


@dataclass(frozen=True)
class BTBConfig:
    """An (optionally constrained) branch target buffer (section 3.1).

    ``num_entries=None`` gives the paper's *ideal* unconstrained BTB.
    """

    num_entries: Optional[int] = None
    associativity: Associativity = "full"
    update_rule: str = "2bc"

    def __post_init__(self) -> None:
        _validate_entries(self.num_entries)
        _validate_associativity(self.num_entries, self.associativity)
        if self.update_rule not in UPDATE_RULES:
            raise ConfigError(
                f"unknown update rule {self.update_rule!r}; expected one of {UPDATE_RULES}"
            )

    @property
    def label(self) -> str:
        size = "inf" if self.num_entries is None else str(self.num_entries)
        return f"btb-{self.update_rule}({size})"


@dataclass(frozen=True)
class TwoLevelConfig:
    """A two-level indirect-branch predictor (sections 3.2-5).

    The defaults describe the paper's *practical* predictor shape: global
    history, per-branch tables folded in via XOR, auto precision under a
    24-bit pattern budget, reverse interleaving.  Use the
    :meth:`unconstrained` and :meth:`practical` constructors for the two
    canonical configurations.
    """

    path_length: int = 3
    history_sharing: int = ADDRESS_BITS - 1           # s (global)
    table_sharing: int = 2                            # h (per-branch)
    precision: Precision = "auto"                     # b
    pattern_budget: int = PATTERN_BIT_BUDGET
    low_bit: int = DEFAULT_LOW_BIT                    # a
    compression: str = "select"
    address_mode: str = "xor"
    interleave: str = "reverse"
    num_entries: Optional[int] = None
    associativity: Associativity = "full"
    update_rule: str = "2bc"
    confidence_bits: int = 2

    def __post_init__(self) -> None:
        if self.path_length < 0:
            raise ConfigError(f"path length must be non-negative, got {self.path_length}")
        if not 0 <= self.history_sharing <= ADDRESS_BITS:
            raise ConfigError(
                f"history sharing must be in [0, {ADDRESS_BITS}], got {self.history_sharing}"
            )
        if not 0 <= self.table_sharing <= ADDRESS_BITS:
            raise ConfigError(
                f"table sharing must be in [0, {ADDRESS_BITS}], got {self.table_sharing}"
            )
        if self.compression not in COMPRESSION_SCHEMES:
            raise ConfigError(
                f"unknown compression {self.compression!r}; "
                f"expected one of {COMPRESSION_SCHEMES}"
            )
        if self.address_mode not in ADDRESS_MODES:
            raise ConfigError(
                f"unknown address mode {self.address_mode!r}; "
                f"expected one of {ADDRESS_MODES}"
            )
        if self.interleave not in ("none", "straight", "reverse", "pingpong"):
            raise ConfigError(f"unknown interleave scheme {self.interleave!r}")
        if self.update_rule not in UPDATE_RULES:
            raise ConfigError(
                f"unknown update rule {self.update_rule!r}; expected one of {UPDATE_RULES}"
            )
        if self.confidence_bits < 1:
            raise ConfigError(
                f"confidence bits must be >= 1, got {self.confidence_bits}"
            )
        _validate_entries(self.num_entries)
        _validate_associativity(self.num_entries, self.associativity)
        # Force resolution now so bad precision values fail eagerly.
        self.bits_per_target  # noqa: B018 - property acts as validation

    @property
    def bits_per_target(self) -> int:
        """Resolved per-element pattern width ``b``."""
        if self.precision == "full":
            return ADDRESS_BITS
        if self.precision == "auto":
            return bits_per_element(self.path_length, self.pattern_budget)
        if isinstance(self.precision, int) and self.precision >= 1:
            return self.precision
        raise ConfigError(
            f"precision must be a positive int, 'full' or 'auto'; got {self.precision!r}"
        )

    @property
    def effective_low_bit(self) -> int:
        """Full precision keeps whole addresses, so selection starts at bit 0."""
        return 0 if self.precision == "full" else self.low_bit

    @property
    def first_level(self) -> Tuple[object, ...]:
        """The fields the lookup keys depend on, with ``b`` and ``a`` resolved.

        History registers and key assembly read only these; the table
        fields (size, associativity, update rule, confidence bits) never
        change a key.  Two configs with equal ``first_level`` therefore
        build the same key column from the same trace.
        """
        return (self.path_length, self.history_sharing, self.bits_per_target,
                self.effective_low_bit, self.compression, self.address_mode,
                self.table_sharing, self.interleave)

    @property
    def label(self) -> str:
        size = "inf" if self.num_entries is None else str(self.num_entries)
        return f"twolevel(p={self.path_length},{self.associativity},{size})"

    @classmethod
    def unconstrained(
        cls,
        path_length: int,
        history_sharing: int = ADDRESS_BITS - 1,
        table_sharing: int = 2,
        **overrides: object,
    ) -> "TwoLevelConfig":
        """Section 3 shape: full precision, concatenation, unlimited table."""
        config = cls(
            path_length=path_length,
            history_sharing=history_sharing,
            table_sharing=table_sharing,
            precision="full",
            address_mode="concat",
            interleave="none",
            num_entries=None,
            associativity="full",
        )
        return replace(config, **overrides) if overrides else config

    @classmethod
    def practical(
        cls,
        path_length: int,
        num_entries: int,
        associativity: Associativity = 4,
        **overrides: object,
    ) -> "TwoLevelConfig":
        """Section 5 shape: 24-bit pattern, XOR fold, reverse interleave."""
        config = cls(
            path_length=path_length,
            num_entries=num_entries,
            associativity=associativity,
        )
        return replace(config, **overrides) if overrides else config


@dataclass(frozen=True)
class HybridConfig:
    """A hybrid predictor combining component predictors (section 6).

    Components are listed in tie-break priority order: when confidence
    counters tie, the earliest component wins.  The paper evaluates
    two-component hybrids with equal table geometry and different path
    lengths; more components are supported as the §8.1 extension.
    """

    components: Tuple[TwoLevelConfig, ...]
    metapredictor: str = "confidence"
    selector_entries: Optional[int] = None  # BPST size; None = unconstrained
    selector_bits: int = 2

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise ConfigError(
                f"a hybrid predictor needs at least two components, got "
                f"{len(self.components)}"
            )
        if self.metapredictor not in ("confidence", "bpst"):
            raise ConfigError(
                f"unknown metapredictor {self.metapredictor!r}; "
                "expected 'confidence' or 'bpst'"
            )
        if self.metapredictor == "bpst" and len(self.components) != 2:
            raise ConfigError("the BPST metapredictor supports exactly two components")
        if self.selector_bits < 1:
            raise ConfigError(f"selector bits must be >= 1, got {self.selector_bits}")
        _validate_entries(self.selector_entries)

    @property
    def label(self) -> str:
        paths = ".".join(str(c.path_length) for c in self.components)
        first = self.components[0]
        size = "inf" if first.num_entries is None else str(first.num_entries)
        return f"hybrid(p={paths},{first.associativity},{size})"

    @classmethod
    def dual_path(
        cls,
        path_a: int,
        path_b: int,
        num_entries: int,
        associativity: Associativity = 4,
        metapredictor: str = "confidence",
        confidence_bits: int = 2,
        **component_overrides: object,
    ) -> "HybridConfig":
        """The paper's canonical hybrid: two equal-geometry components."""
        base = TwoLevelConfig.practical(
            path_a,
            num_entries,
            associativity,
            confidence_bits=confidence_bits,
            **component_overrides,
        )
        other = replace(base, path_length=path_b)
        return cls(components=(base, other), metapredictor=metapredictor)


#: Any predictor configuration understood by :func:`repro.core.factory.build_predictor`.
PredictorConfig = Union[BTBConfig, TwoLevelConfig, HybridConfig]

__all__ = [
    "Associativity",
    "BTBConfig",
    "HybridConfig",
    "Precision",
    "PredictorConfig",
    "TwoLevelConfig",
    "field",
    "replace",
]
