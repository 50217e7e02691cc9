"""Bit-manipulation primitives used by the predictor hardware models.

Everything in this module is a pure function or an immutable precomputed
permutation; the stateful predictor machinery lives in the sibling modules.

Terminology (following the paper, section 4 and 5.2.1):

* A *pattern element* is the compressed representation of one target
  address in the history pattern (``b`` bits selected, folded, or otherwise
  derived from the 32-bit target).
* The *packed pattern* is the concatenation of the ``p`` most recent
  elements into one integer.  By convention the **most recent element
  occupies the lowest-order bits** — this matches Figure 13 of the paper,
  where the index part of a concatenated key consists entirely of the most
  recent target.
* An *interleaved pattern* reorders the packed pattern's bits so that the
  low-order bits of the key contain bits from *every* element (Figure 15).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError

#: Width of a full branch-target address in bits, as in the paper's SPARC
#: traces.  Addresses are word aligned, so bits 0..1 are always zero.
ADDRESS_BITS = 32

#: Lowest target-address bit worth including in a history pattern.  The
#: paper found that starting the selected bit range at ``a=2`` (skipping the
#: alignment bits) "worked best on average" (section 4.1).
DEFAULT_LOW_BIT = 2

#: Total history-pattern bit budget used throughout the paper's constrained
#: experiments: "a total bit length of 24 bits suffices" (section 4.1).
PATTERN_BIT_BUDGET = 24

#: Valid interleaving scheme names (section 5.2.1, Figure 15).
INTERLEAVE_SCHEMES = ("none", "straight", "reverse", "pingpong")


def mask(width: int) -> int:
    """Return a bit mask with the ``width`` lowest bits set."""
    if width < 0:
        raise ConfigError(f"bit width must be non-negative, got {width}")
    return (1 << width) - 1


def select_bits(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``.

    This is the paper's basic pattern-compression scheme: use address bits
    ``[a .. a+b-1]`` of each target (section 4.1).
    """
    if low < 0:
        raise ConfigError(f"low bit must be non-negative, got {low}")
    return (value >> low) & mask(width)


def fold_xor(value: int, width: int, total_bits: int = ADDRESS_BITS) -> int:
    """Fold ``value`` into ``width`` bits by XOR-ing ``width``-bit chunks.

    One of the alternative compression schemes the paper evaluated and
    rejected ("fold the new target address into the desired number of b bits
    by dividing it into chunks of b bits and xor-ing them all together",
    section 4.1).  Kept for the corresponding ablation experiment.
    """
    if width <= 0:
        raise ConfigError(f"fold width must be positive, got {width}")
    folded = 0
    remaining = value & mask(total_bits)
    while remaining:
        folded ^= remaining & mask(width)
        remaining >>= width
    return folded


def bits_per_element(path_length: int, budget: int = PATTERN_BIT_BUDGET) -> int:
    """Largest per-element width ``b`` such that ``b * p <= budget``.

    This is the paper's rule for choosing history precision: "we always
    choose the largest number b of bits from each address that keeps
    b * p <= 24" (section 4.1).  For ``p = 0`` there are no elements and the
    width is irrelevant; we return the full budget by convention.
    """
    if path_length < 0:
        raise ConfigError(f"path length must be non-negative, got {path_length}")
    if budget <= 0:
        raise ConfigError(f"bit budget must be positive, got {budget}")
    if path_length == 0:
        return budget
    width = budget // path_length
    if width == 0:
        raise ConfigError(
            f"path length {path_length} does not fit in a {budget}-bit pattern"
        )
    return width


def pack_elements(elements: Sequence[int], width: int) -> int:
    """Concatenate pattern elements, most recent (index 0) in the low bits."""
    packed = 0
    element_mask = mask(width)
    for position, element in enumerate(elements):
        packed |= (element & element_mask) << (position * width)
    return packed


def unpack_elements(packed: int, count: int, width: int) -> Tuple[int, ...]:
    """Split a packed pattern back into elements, most recent first."""
    element_mask = mask(width)
    return tuple((packed >> (position * width)) & element_mask for position in range(count))


def rotation_order(path_length: int, scheme: str) -> List[int]:
    """Element visit order used by one interleaving round.

    Element index 0 is the most recent target.  Earlier positions in the
    returned order end up at lower key-bit positions within each round, and
    therefore receive extra index bits when the index boundary cuts a round
    in half (Figure 15):

    * ``straight``  — most recent targets are represented most precisely.
    * ``reverse``   — oldest targets are represented most precisely.
    * ``pingpong``  — both the newest and the oldest target are precise.
    """
    if path_length <= 0:
        raise ConfigError(f"interleaving needs a positive path length, got {path_length}")
    if scheme == "straight":
        return list(range(path_length))
    if scheme == "reverse":
        return list(range(path_length - 1, -1, -1))
    if scheme == "pingpong":
        order: List[int] = []
        low, high = 0, path_length - 1
        while low <= high:
            order.append(low)
            if high != low:
                order.append(high)
            low += 1
            high -= 1
        return order
    raise ConfigError(
        f"unknown interleave scheme {scheme!r}; expected one of {INTERLEAVE_SCHEMES}"
    )


#: Per-element lookup tables of every :class:`InterleavePermutation` built
#: so far, keyed by ``(path_length, width, scheme)``.  The tables are a pure
#: function of that key, so permutations of the same shape share one copy
#: and the cache holds one entry per distinct triple in use.
_TABLE_CACHE: Dict[Tuple[int, int, str], Tuple[Tuple[int, ...], ...]] = {}


class InterleavePermutation:
    """A fixed bit permutation turning a packed pattern into an interleaved key.

    The permutation round-robins over the elements: round ``k`` places bit
    ``k`` of every element, in :func:`rotation_order`, at consecutive key
    positions ``k * p .. k * p + (p - 1)``.  The low-order key bits therefore
    contain the low-order bit of *every* element, which is exactly what makes
    interleaved indices spread alternating paths over different table sets
    (section 5.2.1).

    When the element width is small enough, applying the permutation costs
    ``p`` lookups in per-element contribution tables instead of one loop
    iteration per bit.  The tables are built once per ``(p, width, scheme)``
    and shared (``_TABLE_CACHE``), so constructing a permutation costs the
    same whatever its width; pickles carry only the three parameters.
    """

    #: Largest element width for which a 2**width lookup table is built.
    _TABLE_WIDTH_LIMIT = 12

    def __init__(self, path_length: int, width: int, scheme: str = "reverse") -> None:
        if scheme not in ("straight", "reverse", "pingpong"):
            raise ConfigError(
                f"unknown interleave scheme {scheme!r}; expected one of "
                f"{INTERLEAVE_SCHEMES[1:]}"
            )
        if width <= 0:
            raise ConfigError(f"element width must be positive, got {width}")
        self.path_length = path_length
        self.width = width
        self.scheme = scheme
        self._element_mask = mask(width)
        order = rotation_order(path_length, scheme)
        # rank[element] = position of that element within each round.
        rank = [0] * path_length
        for position, element in enumerate(order):
            rank[element] = position
        self._rank = tuple(rank)
        self._tables: Optional[Tuple[Tuple[int, ...], ...]] = None
        if width <= self._TABLE_WIDTH_LIMIT:
            key = (path_length, width, scheme)
            tables = _TABLE_CACHE.get(key)
            if tables is None:
                tables = _TABLE_CACHE[key] = self._build_tables()
            self._tables = tables

    def __reduce__(self) -> Tuple[type, Tuple[int, int, str]]:
        return (type(self), (self.path_length, self.width, self.scheme))

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Only pickles made before ``__reduce__`` existed carry a state
        # dict (with their own copy of the tables); rebuild from the
        # parameters so they share the cached tables too.
        self.__init__(state["path_length"], state["width"], state["scheme"])  # type: ignore[misc]

    def _element_contribution(self, element_index: int, value: int) -> int:
        """Spread one element's bits to their interleaved positions."""
        rank = self._rank[element_index]
        stride = self.path_length
        contribution = 0
        for bit in range(self.width):
            if (value >> bit) & 1:
                contribution |= 1 << (bit * stride + rank)
        return contribution

    def _build_tables(self) -> Tuple[Tuple[int, ...], ...]:
        stride = self.path_length
        tables = []
        for rank in self._rank:
            # Bit k of a value lands at k * stride + rank, so a value's
            # contribution is its upper bits' contribution moved up one
            # round, plus its bit 0 at ``rank``.
            table = [0] * (1 << self.width)
            for value in range(1, 1 << self.width):
                table[value] = (table[value >> 1] << stride) | ((value & 1) << rank)
            tables.append(tuple(table))
        return tuple(tables)

    def apply(self, packed_pattern: int) -> int:
        """Permute a packed (concatenated) pattern into interleaved bit order."""
        width = self.width
        element_mask = self._element_mask
        interleaved = 0
        if self._tables is not None:
            for element_index, table in enumerate(self._tables):
                element = (packed_pattern >> (element_index * width)) & element_mask
                interleaved |= table[element]
        else:
            for element_index in range(self.path_length):
                element = (packed_pattern >> (element_index * width)) & element_mask
                interleaved |= self._element_contribution(element_index, element)
        return interleaved

    def invert(self, interleaved: int) -> int:
        """Inverse permutation; mainly used by tests to prove bijectivity."""
        stride = self.path_length
        packed = 0
        for element_index in range(self.path_length):
            rank = self._rank[element_index]
            element = 0
            for bit in range(self.width):
                if (interleaved >> (bit * stride + rank)) & 1:
                    element |= 1 << bit
            packed |= element << (element_index * self.width)
        return packed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InterleavePermutation(path_length={self.path_length}, "
            f"width={self.width}, scheme={self.scheme!r})"
        )
