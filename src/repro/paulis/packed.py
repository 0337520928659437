"""Bit-packed binary symplectic tableaux and vectorised popcount helpers.

The Clifford2Q search engine (``repro.core.simplify``) and the closed-form
Eq. (6) cost (``repro.core.cost``) operate on Pauli tableaux whose rows and
columns are plain bit vectors.  Packing those vectors into ``np.uint64``
words turns every boolean tableau operation into a handful of word-wide
XOR/AND/OR instructions and every weight query into a vectorised popcount,
the same flat-symplectic idiom used by symmer's ``symplectic_form``.

Two packing orientations are used:

* :func:`pack_bits` packs along the *last* axis, so ``pack_bits(x)`` packs
  each tableau row into ``ceil(num_qubits / 64)`` words (the
  :class:`PackedBSF` layout) and ``pack_bits(x.T)`` packs each *column*
  into ``ceil(num_terms / 64)`` words (the candidate-scoring layout, where
  a whole column of a typical IR group fits in a single word; the search
  packs the columns of a whole batch of groups in one call).
* :func:`popcount` counts set bits per word, vectorised over arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

WORD_BITS = 64

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

# SWAR popcount masks for the numpy < 2.0 fallback.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits in each ``uint64`` word (vectorised)."""
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    # SWAR bit-twiddling fallback (Hacker's Delight 5-3).
    w = words - ((words >> np.uint64(1)) & _M1)
    w = (w & _M2) + ((w >> np.uint64(2)) & _M2)
    w = (w + (w >> np.uint64(4))) & _M4
    return ((w * _H01) >> np.uint64(56)).astype(np.int64)


def words_needed(num_bits: int) -> int:
    """How many ``uint64`` words hold ``num_bits`` bits."""
    return max(1, -(-int(num_bits) // WORD_BITS))


def pack_bits(mat: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, m)`` matrix into ``(n, words)`` uint64 words.

    Bit ``j`` of word ``w`` of row ``i`` is ``mat[i, w*64 + j]``
    (little-endian bit order).  ``m == 0`` packs to a single zero word so
    downstream reductions stay well-defined.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=bool))
    n, m = mat.shape
    words = words_needed(m)
    packed_bytes = np.zeros((n, words * 8), dtype=np.uint8)
    if m:
        raw = np.packbits(mat, axis=1, bitorder="little")
        packed_bytes[:, : raw.shape[1]] = raw
    return packed_bytes.view(np.uint64)


def pack_index_masks(index_lists: Sequence[Sequence[int]], num_bits: int) -> np.ndarray:
    """Pack per-row index sets into ``(rows, words)`` uint64 support masks.

    Row ``i`` of the result has exactly the bits named by
    ``index_lists[i]`` set — the packed-support-mask form the fast ordering
    engine uses for whole-window union/interlock tests.  Equivalent to
    building the boolean indicator matrix and calling :func:`pack_bits`.
    """
    rows = len(index_lists)
    mat = np.zeros((rows, int(num_bits)), dtype=bool)
    for i, indices in enumerate(index_lists):
        if len(indices):
            mat[i, list(indices)] = True
    return pack_bits(mat)


def unpack_bits(packed: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(n, words)`` words -> ``(n, num_bits)`` bool."""
    packed = np.atleast_2d(np.asarray(packed, dtype=np.uint64))
    as_bytes = packed.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, : int(num_bits)].astype(bool)


class PackedBSF:
    """A bit-packed ``[X | Z]`` tableau (one row per Pauli string).

    Rows are packed along the qubit axis: ``x`` and ``z`` have shape
    ``(num_terms, words)`` with ``words = ceil(num_qubits / 64)``.  All
    weight queries reduce to vectorised popcounts; the class mirrors the
    query API of :class:`repro.paulis.bsf.BSF` and round-trips through it.
    """

    def __init__(
        self,
        x: np.ndarray,
        z: np.ndarray,
        num_qubits: int,
        coefficients: Optional[ArrayLike] = None,
        signs: Optional[ArrayLike] = None,
    ):
        self.x = np.array(x, dtype=np.uint64, copy=True)
        self.z = np.array(z, dtype=np.uint64, copy=True)
        if self.x.shape != self.z.shape or self.x.ndim != 2:
            raise ValueError("x and z must be 2-D word arrays of identical shape")
        self.num_qubits = int(num_qubits)
        if self.x.shape[1] != words_needed(self.num_qubits):
            raise ValueError("word count does not match num_qubits")
        rows = self.x.shape[0]
        if coefficients is None:
            coefficients = np.ones(rows)
        if signs is None:
            signs = np.ones(rows, dtype=int)
        self.coefficients = np.array(coefficients, dtype=float, copy=True)
        self.signs = np.array(signs, dtype=int, copy=True)
        if self.coefficients.shape != (rows,) or self.signs.shape != (rows,):
            raise ValueError("coefficients and signs must have one entry per row")

    # ------------------------------------------------------------------
    @classmethod
    def from_bool(
        cls,
        x: np.ndarray,
        z: np.ndarray,
        coefficients: Optional[ArrayLike] = None,
        signs: Optional[ArrayLike] = None,
    ) -> "PackedBSF":
        x = np.asarray(x, dtype=bool)
        return cls(pack_bits(x), pack_bits(z), x.shape[1], coefficients, signs)

    @classmethod
    def from_bsf(cls, bsf) -> "PackedBSF":
        return cls.from_bool(bsf.x, bsf.z, bsf.coefficients, bsf.signs)

    def to_bsf(self):
        from repro.paulis.bsf import BSF

        return BSF(
            unpack_bits(self.x, self.num_qubits),
            unpack_bits(self.z, self.num_qubits),
            self.coefficients,
            self.signs,
        )

    def copy(self) -> "PackedBSF":
        return PackedBSF(self.x, self.z, self.num_qubits, self.coefficients, self.signs)

    # ------------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        return int(self.x.shape[0])

    @property
    def num_words(self) -> int:
        return int(self.x.shape[1])

    def support_words(self) -> np.ndarray:
        """Per-row packed support bit vectors (``x | z``)."""
        return self.x | self.z

    def row_weights(self) -> np.ndarray:
        """Pauli weight of each row, via vectorised popcount."""
        return popcount(self.support_words()).sum(axis=1)

    def support_mask_words(self) -> np.ndarray:
        """Packed union of all row supports (one word vector)."""
        if self.num_terms == 0:
            return np.zeros(self.num_words, dtype=np.uint64)
        return np.bitwise_or.reduce(self.support_words(), axis=0)

    def total_weight(self) -> int:
        """Eq. (4): number of qubits touched by the union of all rows."""
        return int(popcount(self.support_mask_words()).sum())

    def column_weights(self) -> np.ndarray:
        """How many rows act non-trivially on each qubit."""
        support = unpack_bits(self.support_words(), self.num_qubits)
        return np.count_nonzero(support, axis=0)

    def __repr__(self) -> str:
        return (
            f"PackedBSF(num_terms={self.num_terms}, num_qubits={self.num_qubits}, "
            f"total_weight={self.total_weight()})"
        )
