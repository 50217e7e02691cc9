"""First-level history registers (the "path" of recent indirect-branch targets).

A two-level indirect-branch predictor keeps, per history register, the
compressed targets of the ``p`` most recently executed indirect branches
(the *history pattern*, section 3.2).  The paper parameterises how many
registers exist with the *history sharing* parameter ``s`` (Figure 4): all
branches whose addresses agree in bits ``s..31`` share one register, so

* ``s = 2``  — one register per branch (per-address history; instructions
  are word aligned, so bits 0..1 carry no information);
* ``s = 31`` — a single global register shared by every branch.

Patterns are stored *packed*: the most recent element occupies the
low-order bits (see :mod:`repro.core.bits`).
"""

from __future__ import annotations

from array import array
from typing import Dict

from ..errors import ConfigError, StateError
from .bits import ADDRESS_BITS, DEFAULT_LOW_BIT, fold_xor, mask
from .columns import pairs_of, to_column

#: Pattern-compression scheme names (section 4.1).  ``select`` keeps address
#: bits ``[a .. a+b-1]`` of each target (the winner); ``fold`` XOR-folds the
#: whole target into ``b`` bits; ``shift_xor`` shifts the register left by
#: ``b`` and XORs in the complete target (both rejected variants, kept for
#: the ablation experiments).
COMPRESSION_SCHEMES = ("select", "fold", "shift_xor")


class HistoryRegisterFile:
    """The set of history registers selected by the sharing parameter ``s``.

    Args:
        path_length: number of targets ``p`` kept per register.
        sharing_shift: the paper's ``s`` — branches with equal ``pc >> s``
            share a register.  Any value >= ``ADDRESS_BITS - 1`` behaves as a
            single global register.
        bits_per_target: compressed width ``b`` of each pattern element.
            Use ``ADDRESS_BITS`` for the full-precision unconstrained
            predictors of section 3.
        low_bit: first target bit selected (the paper's ``a``, default 2).
        compression: one of :data:`COMPRESSION_SCHEMES`.
    """

    def __init__(
        self,
        path_length: int,
        sharing_shift: int = ADDRESS_BITS - 1,
        bits_per_target: int = ADDRESS_BITS,
        low_bit: int = DEFAULT_LOW_BIT,
        compression: str = "select",
    ) -> None:
        if path_length < 0:
            raise ConfigError(f"path length must be non-negative, got {path_length}")
        if not 0 <= sharing_shift <= ADDRESS_BITS:
            raise ConfigError(
                f"history sharing shift must be in [0, {ADDRESS_BITS}], got {sharing_shift}"
            )
        if not 1 <= bits_per_target <= ADDRESS_BITS:
            raise ConfigError(
                f"bits per target must be in [1, {ADDRESS_BITS}], got {bits_per_target}"
            )
        if compression not in COMPRESSION_SCHEMES:
            raise ConfigError(
                f"unknown compression {compression!r}; expected one of {COMPRESSION_SCHEMES}"
            )
        if (
            compression == "select"
            and path_length > 0
            and low_bit + bits_per_target > ADDRESS_BITS
        ):
            raise ConfigError(
                f"selected bit range [{low_bit}..{low_bit + bits_per_target - 1}] "
                f"exceeds the {ADDRESS_BITS}-bit address"
            )
        self.path_length = path_length
        self.sharing_shift = sharing_shift
        self.bits_per_target = bits_per_target
        self.low_bit = low_bit
        self.compression = compression
        self.pattern_bits = path_length * bits_per_target
        self._pattern_mask = mask(self.pattern_bits)
        self._element_mask = mask(bits_per_target)
        # A single program never spans the whole address space, so any shift
        # close to the address width collapses every branch into one
        # register; short-circuit that common (global-history) case.
        self._global = sharing_shift >= ADDRESS_BITS - 1
        self._global_register = 0
        self._registers: Dict[int, int] = {}

    # -- pattern access ----------------------------------------------------

    def pattern_for(self, pc: int) -> int:
        """Packed history pattern of the register assigned to branch ``pc``."""
        if self.path_length == 0:
            return 0
        if self._global:
            return self._global_register
        return self._registers.get(pc >> self.sharing_shift, 0)

    def record(self, pc: int, target: int) -> None:
        """Shift the resolved ``target`` into the branch's history register."""
        if self.path_length == 0:
            return
        if self.compression == "shift_xor":
            update = target & mask(ADDRESS_BITS)
        elif self.compression == "fold":
            update = fold_xor(target, self.bits_per_target)
        else:
            update = (target >> self.low_bit) & self._element_mask
        if self._global:
            if self.compression == "shift_xor":
                self._global_register = (
                    (self._global_register << self.bits_per_target) ^ update
                ) & self._pattern_mask
            else:
                self._global_register = (
                    (self._global_register << self.bits_per_target) | update
                ) & self._pattern_mask
            return
        register_id = pc >> self.sharing_shift
        old = self._registers.get(register_id, 0)
        if self.compression == "shift_xor":
            new = ((old << self.bits_per_target) ^ update) & self._pattern_mask
        else:
            new = ((old << self.bits_per_target) | update) & self._pattern_mask
        self._registers[register_id] = new

    def reset(self) -> None:
        """Clear all history state (used between independent simulations)."""
        self._global_register = 0
        self._registers.clear()

    # -- state columns -------------------------------------------------------

    def export_rows(self) -> array:
        """Registers as flat ``(register id, packed pattern)`` rows.

        No rows without a path; a global register is the one row ``(0,
        pattern)``; otherwise one row per register touched, in first-touch
        order.
        """
        if self.path_length == 0:
            rows = []
        elif self._global:
            rows = [(0, self._global_register)]
        else:
            rows = self._registers.items()
        return to_column(rows, "history")

    def import_rows(self, column: array) -> None:
        """Replace every register with exported rows (see :meth:`export_rows`).

        Raises :class:`~repro.errors.StateError` — leaving the registers
        unchanged — on a bad row width, a pattern wider than ``p * b``
        bits, a repeated id, or rows the sharing mode cannot hold.
        """
        registers = pairs_of(column, "history", self._pattern_mask)
        if self.path_length == 0:
            if registers:
                raise StateError("a path length of 0 keeps no history rows")
        elif self._global:
            if set(registers) != {0}:
                raise StateError("a global history register is the one "
                                 "row with id 0")
            self._global_register = registers[0]
        else:
            self._registers = registers

    @property
    def register_count(self) -> int:
        """Number of distinct history registers touched so far."""
        return 1 if self._global else len(self._registers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HistoryRegisterFile(p={self.path_length}, s={self.sharing_shift}, "
            f"b={self.bits_per_target}, compression={self.compression!r})"
        )
