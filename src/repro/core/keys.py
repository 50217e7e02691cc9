"""Lookup-key assembly: combining the history pattern with the branch address.

The second-level table is accessed with a key derived from the history
pattern and the branch address.  The paper's *history table sharing*
parameter ``h`` (Figure 6) controls how much of the branch address takes
part: branches with equal ``pc >> h`` share a history table, so ``h = 2``
gives per-branch tables and ``h = 31`` a single shared table.

Two combination operators are studied (section 4.2):

* ``concat`` — the address component is placed above the pattern bits
  (logically: the address selects a table, the pattern indexes within it);
* ``xor`` — Gshare-style folding, which halves the tag storage at a tiny
  accuracy cost (Table 5);
* ``none`` — pattern only (equivalent to one globally shared table).

For set-associative and tagless tables the pattern bits may additionally be
*interleaved* (section 5.2.1) so that the index part of the key contains
bits from every target in the path rather than only the most recent ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ConfigError
from .bits import ADDRESS_BITS, InterleavePermutation, mask

#: Address-combination operator names.
ADDRESS_MODES = ("concat", "xor", "none")


class KeyBuilder:
    """Builds second-level lookup keys from (branch PC, packed pattern).

    Args:
        path_length: number of pattern elements ``p``.
        bits_per_target: width ``b`` of each packed pattern element.
        address_mode: one of :data:`ADDRESS_MODES`.
        table_sharing: the paper's ``h``; the address component of the key
            is ``pc >> h``.  With ``address_mode="none"`` the value is
            irrelevant.
        interleave: ``"none"`` for plain concatenation of pattern elements,
            or an interleaving scheme name (``"straight"``, ``"reverse"``,
            ``"pingpong"``).
    """

    def __init__(
        self,
        path_length: int,
        bits_per_target: int,
        address_mode: str = "xor",
        table_sharing: int = 2,
        interleave: str = "none",
    ) -> None:
        if path_length < 0:
            raise ConfigError(f"path length must be non-negative, got {path_length}")
        if address_mode not in ADDRESS_MODES:
            raise ConfigError(
                f"unknown address mode {address_mode!r}; expected one of {ADDRESS_MODES}"
            )
        if not 0 <= table_sharing <= ADDRESS_BITS:
            raise ConfigError(
                f"table sharing shift must be in [0, {ADDRESS_BITS}], got {table_sharing}"
            )
        self.path_length = path_length
        self.bits_per_target = bits_per_target
        self.address_mode = address_mode
        self.table_sharing = table_sharing
        self.interleave = interleave
        self.pattern_bits = path_length * bits_per_target
        self._permutation: Optional[InterleavePermutation]
        if interleave == "none" or path_length <= 1:
            # Interleaving a single element (or an empty pattern) is the
            # identity permutation.
            self._permutation = None
        else:
            self._permutation = InterleavePermutation(
                path_length, bits_per_target, interleave
            )
        # A table shared by the whole program (h at the address width) means
        # the address contributes nothing.
        if table_sharing >= ADDRESS_BITS - 1:
            self.address_mode = "none"

    def key(self, pc: int, packed_pattern: int) -> int:
        """Assemble the table lookup key for one prediction."""
        permutation = self._permutation
        pattern = permutation.apply(packed_pattern) if permutation else packed_pattern
        mode = self.address_mode
        if mode == "none":
            return pattern
        address = pc >> self.table_sharing
        if mode == "xor":
            return pattern ^ address
        return (address << self.pattern_bits) | pattern

    def keys_for(self, pcs: Sequence[int], patterns: Sequence[int]) -> List[int]:
        """Column form of :meth:`key`: one key per (pc, pattern) pair."""
        permutation = self._permutation
        if permutation is not None:
            # Patterns repeat far more often than branches do, so each
            # distinct one is permuted once.
            apply = permutation.apply
            permuted = {pattern: apply(pattern) for pattern in set(patterns)}
            patterns = [permuted[pattern] for pattern in patterns]
        mode = self.address_mode
        if mode == "none":
            return list(patterns)
        shift = self.table_sharing
        if mode == "xor":
            return [pattern ^ (pc >> shift) for pc, pattern in zip(pcs, patterns)]
        width = self.pattern_bits
        return [((pc >> shift) << width) | pattern
                for pc, pattern in zip(pcs, patterns)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyBuilder(p={self.path_length}, b={self.bits_per_target}, "
            f"address={self.address_mode!r}, h={self.table_sharing}, "
            f"interleave={self.interleave!r})"
        )


def xor_fold_address(pc: int, width: int = ADDRESS_BITS - 2) -> int:
    """The 30-bit branch-address component used by the paper (bits 2..31)."""
    return (pc >> 2) & mask(width)
