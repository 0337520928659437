"""Group-wise BSF simplification (Algorithm 1 of the paper).

Each IR group's tableau is simplified by a greedy sequence of two-qubit
Clifford conjugations chosen from the six universal controlled Paulis
(Eq. (5)): at every epoch, local (weight <= 1) rows are peeled off, every
candidate ``(generator, qubit pair)`` is scored with the Eq. (6) cost on the
conjugated tableau, and the best candidate is applied.  The loop ends when
the total weight of Eq. (4) drops to at most two, at which point the
remaining rows are plain one- or two-qubit Pauli rotations.

Search engines
--------------
:func:`simplify_groups` runs the search for all groups of a program at
once, in lock-step epochs.  In each epoch every unfinished group peels its
local rows and checks termination on its own; it then either joins the
epoch's scoring batch or, once past its ``max_epochs`` budget, takes the
guaranteed single-row fallback.  Groups are independent, so each one gets
exactly the Clifford sequence it would get alone.  Two provably-equivalent
candidate scorers are available:

* ``engine="fast"`` (the default when the cost is Eq. (6)) scores every
  candidate of every group in the batch with *one* numpy pass per epoch.
  IR groups are small (a few rows, a handful of candidate pairs), so a
  per-group scorer would pay numpy's fixed per-call overhead once per
  group and epoch; batching pays it once per epoch.  The groups share the
  register width, so each one's qubit columns are packed into
  ``np.uint64`` words (one word per column for groups of up to 64 rows),
  padded to the batch's largest word count, and stacked into
  ``(groups, qubits, words)`` arrays — the stacked symplectic-array idiom.
  Candidate pairs come from the packed supports (two columns sharing a
  row), so memory scales with groups x qubits x words.  A candidate
  conjugation only rewrites the two columns it touches, so the sign-free
  tableau rules of all nine orientations are applied to just those
  columns and the Eq. (6) cost is evaluated through its closed-form column
  identity — O(rows) work per candidate instead of a full-tableau copy
  plus an O(rows^2 * qubits) rescore.  All costs are exact integers
  (doubled), and each group takes its own first minimal candidate
  (pair-major, orientation-minor), so the arg-min reproduces the reference
  tie-breaking bit for bit.
* ``engine="reference"`` is the original copy-and-rescore scan, run per
  group inside the same epoch loop; it remains the path for custom cost
  functions (e.g. the ablation study) and the oracle for the equivalence
  property tests.

Output structure
----------------
The paper's pseudocode assembles the result by prepending/appending the
chosen Cliffords around the final tableau.  Interpreted literally as a flat
gate list this does not reproduce the group unitary, so this module emits
the (equivalent, and unitarily exact) *nested conjugation* form::

    locals_1 ; C_1 ; locals_2 ; C_2 ; ... ; final rotations ; ... ; C_2 ; C_1

Every ``C_k`` is Hermitian, so the right-hand tail is the same Clifford
sequence in reverse.  The resulting subcircuit equals the product of the
group's original Pauli exponentiations in a (recorded) permuted order —
peeled-local rows first — which is a Trotter reordering the paper permits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cliffords.clifford2q import Clifford2Q
from repro.core.cost import bsf_cost, pairs_of
from repro.core.grouping import IRGroup
from repro.paulis.bsf import (
    BSF,
    CLIFFORD2Q_KINDS,
    clifford2q_postlude,
    clifford2q_prelude,
)
from repro.paulis.packed import WORD_BITS, pack_bits, popcount
from repro.paulis.pauli import PauliTerm

#: Hard cap on the number of Clifford2Q search epochs per group, relative to
#: the group's qubit count; prevents pathological greedy oscillation.
_MAX_EPOCH_FACTOR = 6


@dataclass
class SimplificationLevel:
    """One epoch of the simplification: peeled locals then one Clifford."""

    local_terms: List[PauliTerm] = field(default_factory=list)
    local_indices: List[int] = field(default_factory=list)
    clifford: Optional[Clifford2Q] = None


@dataclass
class SimplifiedGroup:
    """The result of simplifying one IR group.

    ``levels`` holds the nested structure described in the module docstring;
    ``final_terms`` are the residual rotations (total weight <= 2) in the
    innermost layer; ``implemented_order`` gives the original term indices
    in the order their (conjugated) rotations appear in the subcircuit, so
    that unitary-equivalence checks can rebuild the reference product.
    """

    group: IRGroup
    levels: List[SimplificationLevel] = field(default_factory=list)
    final_terms: List[PauliTerm] = field(default_factory=list)
    final_indices: List[int] = field(default_factory=list)
    epochs: int = 0

    @property
    def cliffords(self) -> List[Clifford2Q]:
        return [level.clifford for level in self.levels if level.clifford is not None]

    @property
    def clifford_count(self) -> int:
        return len(self.cliffords)

    @property
    def implemented_order(self) -> List[int]:
        order: List[int] = []
        for level in self.levels:
            order.extend(level.local_indices)
        order.extend(self.final_indices)
        return order

    def implemented_terms(self) -> List[PauliTerm]:
        """The group's original terms in the order the subcircuit applies them."""
        return [self.group.terms[i] for i in self.implemented_order]


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------
def _candidate_pairs(bsf: BSF) -> List[Tuple[int, int]]:
    """Qubit pairs worth trying: both columns active, sharing at least one row.

    ``support.T @ support`` counts, for every column pair, the rows on which
    both columns are non-trivial (so a shared row already implies both
    columns are active); ``np.nonzero`` of its strict upper triangle
    enumerates the pairs in row-major ``(a < b)`` order.  The reference
    engine scans these; the fast engine derives the same pairs from its
    packed columns.
    """
    support = (bsf.x | bsf.z).astype(np.int64)
    a_idx, b_idx = np.nonzero(np.triu(support.T @ support > 0, k=1))
    return [(int(a), int(b)) for a, b in zip(a_idx, b_idx)]


#: The nine (generator kind, swap control/target) orientations per qubit
#: pair, in the exact enumeration order of the reference engine.
_ORIENTATIONS: Tuple[Tuple[str, bool], ...] = (
    ("xx", False),
    ("yy", False),
    ("zz", False),
    ("xy", False),
    ("xy", True),
    ("yz", False),
    ("yz", True),
    ("zx", False),
    ("zx", True),
)


def _oriented(o: int, a: int, b: int) -> Clifford2Q:
    """The candidate of orientation ``o`` on the qubit pair ``(a, b)``."""
    kind, swapped = _ORIENTATIONS[o]
    return Clifford2Q(kind, b, a) if swapped else Clifford2Q(kind, a, b)


def _candidate_cliffords(pairs: Sequence[Tuple[int, int]]) -> List[Clifford2Q]:
    return [
        _oriented(o, a, b) for a, b in pairs for o in range(len(_ORIENTATIONS))
    ]


# ----------------------------------------------------------------------
# Fast engine: incremental column-local candidate scoring
# ----------------------------------------------------------------------
def _pair_program(kind: str) -> Tuple[Tuple[str, Optional[int]], ...]:
    """The elementary-gate program of ``C(s0, s1)`` on symbolic qubits (0, 1)."""
    program: List[Tuple[str, Optional[int]]] = []
    program.extend(clifford2q_prelude(kind, 0, 1))
    program.append(("cx", None))
    program.extend(clifford2q_postlude(kind, 0, 1))
    return tuple(program)


_PAIR_PROGRAMS = {kind: _pair_program(kind) for kind in CLIFFORD2Q_KINDS}


def _conjugate_pair_columns(kind, xc, zc, xt, zt):
    """Sign-free tableau update of the two columns touched by ``C(s0, s1)``.

    Inputs are the (control, target) x/z column bit vectors — boolean or
    uint64-packed, any trailing shape — and the outputs are fresh arrays.
    Signs are irrelevant here because Eq. (6) only reads the bit pattern.
    """
    xc, zc, xt, zt = xc.copy(), zc.copy(), xt.copy(), zt.copy()
    for name, qubit in _PAIR_PROGRAMS[kind]:
        if name == "cx":
            xt ^= xc
            zc ^= zt
        elif name == "h":
            if qubit == 0:
                xc, zc = zc, xc
            else:
                xt, zt = zt, xt
        else:  # s / sdg act identically on the bits: z ^= x
            if qubit == 0:
                zc ^= xc
            else:
                zt ^= xt
    return xc, zc, xt, zt


def _orientation_matrices() -> np.ndarray:
    """GF(2) matrices of all nine candidate orientations.

    Every elementary update in :func:`_conjugate_pair_columns` is linear
    over GF(2), so the whole conjugation maps the four input columns
    ``(x_a, z_a, x_b, z_b)`` to XOR combinations of themselves.  Entry
    ``[o, k, i]`` says whether input ``i`` feeds output ``k`` under
    orientation ``o``; the scorer uses these to batch all orientations into
    a handful of word-wide XOR passes.
    """
    mats = np.zeros((len(_ORIENTATIONS), 4, 4), dtype=bool)
    for o, (kind, swapped) in enumerate(_ORIENTATIONS):
        for i in range(4):
            xa, za, xb, zb = (np.array([j == i]) for j in range(4))
            if swapped:
                xb2, zb2, xa2, za2 = _conjugate_pair_columns(kind, xb, zb, xa, za)
            else:
                xa2, za2, xb2, zb2 = _conjugate_pair_columns(kind, xa, za, xb, zb)
            for k, column in enumerate((xa2, za2, xb2, zb2)):
                mats[o, k, i] = bool(column[0])
    return mats


_ORIENTATION_MATS = _orientation_matrices()


def _pack_columns(tableaux: Sequence[BSF]) -> Tuple[np.ndarray, ...]:
    """Column-pack a batch of same-width tableaux into ``uint64`` words.

    Returns ``(rows, xp, zp, w1, w2, n_nl)``: the row count of every
    tableau, its x and z columns as ``(tableaux, qubits, words)`` words,
    bit masks of its weight-1 and weight-2 rows as ``(tableaux, words)``,
    and its number of non-local rows.  Every tableau's rows fill their own
    run of whole words and the shorter runs are zero-padded to the longest,
    so the padding bits are zero rows that no count sees.
    """
    num = len(tableaux)
    rows = np.array([t.num_terms for t in tableaux], dtype=np.int64)
    x = np.concatenate([t.x for t in tableaux])
    z = np.concatenate([t.z for t in tableaux])
    weights = np.count_nonzero(x | z, axis=1)
    qubits = x.shape[1]

    group_words = np.maximum(1, -(-rows // WORD_BITS))
    word_start = np.cumsum(group_words) - group_words
    row_group = np.repeat(np.arange(num), rows)
    slot = (WORD_BITS * word_start - (np.cumsum(rows) - rows))[row_group] + np.arange(len(x))
    bits = np.zeros((2 * qubits + 2, WORD_BITS * int(group_words.sum())), dtype=bool)
    bits[:qubits, slot] = x.T
    bits[qubits : 2 * qubits, slot] = z.T
    bits[2 * qubits, slot] = weights == 1
    bits[2 * qubits + 1, slot] = weights == 2
    packed = pack_bits(bits)

    word_group = np.repeat(np.arange(num), group_words)
    words = np.zeros((len(bits), num, int(group_words.max())), dtype=np.uint64)
    words[:, word_group, np.arange(len(word_group)) - word_start[word_group]] = packed
    xp = words[:qubits].transpose(1, 0, 2)
    zp = words[qubits : 2 * qubits].transpose(1, 0, 2)
    n_nl = np.bincount(row_group, weights=weights > 1, minlength=num).astype(np.int64)
    return rows, xp, zp, words[2 * qubits], words[2 * qubits + 1], n_nl


def _candidate_scores2(
    tableaux: Sequence[BSF],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Doubled Eq. (6) costs of every candidate of every tableau, in one pass.

    The tableaux must share the register width.  Returns ``(t_idx, a_idx,
    b_idx, cost2)``: candidate ``p`` is the qubit pair ``(a_idx[p],
    b_idx[p])`` of tableau ``t_idx[p]``, and ``cost2[p, o]`` is twice the
    Eq. (6) cost of conjugating that tableau by orientation ``o`` (see
    ``_ORIENTATIONS``) on the pair — an exact integer, so comparisons carry
    no floating-point ambiguity.  Candidates are tableau-major and, within
    a tableau, in the row-major ``(a < b)`` order of the reference engine.

    A candidate only rewrites its two columns, so each score is its
    tableau's base cost plus a column-local delta:

    * the pairwise OR-sums change only through the two columns' popcounts
      (closed-form identity, see :mod:`repro.core.cost`);
    * ``n_nl`` changes only by rows whose weight crosses 1, detected with
      bit-packed masks of the weight-1/2 rows; and
    * ``w_tot`` changes only by the two columns' activity.
    """
    rows, xp, zp, w1_mask, w2_mask, n_nl = _pack_columns(tableaux)
    sp = xp | zp
    num, num_cols = sp.shape[0], sp.shape[1]
    cs = popcount(sp).sum(axis=-1)  # (tableaux, qubits)
    cx_cols = popcount(xp).sum(axis=-1)
    cz_cols = popcount(zp).sum(axis=-1)
    w_tot = np.count_nonzero(cs, axis=1)
    # Doubled base of the two pairwise Eq. (6) sums over *all* columns.
    free = rows[:, None]
    base_pair2 = (
        4 * pairs_of(rows) * num_cols
        - 2 * pairs_of(free - cs).sum(axis=1)
        - pairs_of(free - cx_cols).sum(axis=1)
        - pairs_of(free - cz_cols).sum(axis=1)
    )

    # Candidate pairs: both columns share >= 1 row.  Only active columns can
    # share one, so each tableau's active columns are moved to the front (in
    # ascending order) and just those pairs are tested; inactive padding
    # columns have empty words and never match.
    active = cs > 0
    width = int(np.count_nonzero(active, axis=1).max())
    cols = np.argsort(~active, axis=1, kind="stable")[:, :width]
    first, second = np.triu_indices(width, k=1)
    a_cand, b_cand = cols[:, first], cols[:, second]
    t_col = np.arange(num)[:, None]
    shared = (sp[t_col, a_cand] & sp[t_col, b_cand]).any(axis=-1)
    t_idx, c_idx = np.nonzero(shared)
    a_idx, b_idx = a_cand[t_idx, c_idx], b_cand[t_idx, c_idx]
    if len(t_idx) == 0:
        return t_idx, a_idx, b_idx, np.zeros((0, len(_ORIENTATIONS)), dtype=np.int64)

    rows_p = rows[t_idx]
    cs_a, cs_b = cs[t_idx, a_idx], cs[t_idx, b_idx]
    both_before = sp[t_idx, a_idx] & sp[t_idx, b_idx]
    active_ab = (cs_a > 0).astype(np.int64) + (cs_b > 0).astype(np.int64)
    f_cs_old = pairs_of(rows_p - cs_a) + pairs_of(rows_p - cs_b)
    f_cx_old = pairs_of(rows_p - cx_cols[t_idx, a_idx]) + pairs_of(
        rows_p - cx_cols[t_idx, b_idx]
    )
    f_cz_old = pairs_of(rows_p - cz_cols[t_idx, a_idx]) + pairs_of(
        rows_p - cz_cols[t_idx, b_idx]
    )

    # Conjugate the gathered column words by all nine orientations at once:
    # output o,k is the XOR of the inputs selected by _ORIENTATION_MATS.
    inputs = np.stack(
        (xp[t_idx, a_idx], zp[t_idx, a_idx], xp[t_idx, b_idx], zp[t_idx, b_idx])
    )
    out = np.zeros((len(_ORIENTATIONS),) + inputs.shape, dtype=np.uint64)
    for i in range(4):
        out[_ORIENTATION_MATS[:, :, i]] ^= inputs[i]
    xa2, za2, xb2, zb2 = out[:, 0], out[:, 1], out[:, 2], out[:, 3]
    sa2 = xa2 | za2
    sb2 = xb2 | zb2
    cs_a2 = popcount(sa2).sum(axis=-1)  # (orientations, candidates)
    cs_b2 = popcount(sb2).sum(axis=-1)

    # Rows whose weight crosses the local (<= 1) threshold.  Conjugation by
    # a Clifford supported on the pair is invertible on the pair's Pauli
    # algebra (every _ORIENTATION_MATS entry is full-rank over GF(2)), so a
    # row's in-pair support can move 2 -> 1 (leave: weight-2 rows with both
    # columns before, exactly one after) or 1 -> 2 (enter: weight-1 rows
    # with both columns after) but never vanish.
    leave = popcount(w2_mask[t_idx] & both_before & (sa2 ^ sb2)).sum(axis=-1)
    enter = popcount(w1_mask[t_idx] & sa2 & sb2).sum(axis=-1)
    n_nl2 = n_nl[t_idx] - leave + enter
    w_tot2 = (
        w_tot[t_idx]
        - active_ab
        + (cs_a2 > 0).astype(np.int64)
        + (cs_b2 > 0).astype(np.int64)
    )

    pair2 = (
        base_pair2[t_idx]
        + 2 * (f_cs_old - pairs_of(rows_p - cs_a2) - pairs_of(rows_p - cs_b2))
        + (
            f_cx_old
            - pairs_of(rows_p - popcount(xa2).sum(axis=-1))
            - pairs_of(rows_p - popcount(xb2).sum(axis=-1))
        )
        + (
            f_cz_old
            - pairs_of(rows_p - popcount(za2).sum(axis=-1))
            - pairs_of(rows_p - popcount(zb2).sum(axis=-1))
        )
    )
    cost2 = 2 * w_tot2 * n_nl2 * n_nl2 + pair2
    return t_idx, a_idx, b_idx, cost2.T


def fast_candidate_costs(bsf: BSF) -> List[Tuple[Clifford2Q, float]]:
    """Every candidate Clifford with its incrementally-scored Eq. (6) cost.

    The costs are exact (the engine works in doubled-integer units), in the
    same candidate order as the reference engine; scored as a batch of one
    tableau, and used by the equivalence property tests.
    """
    _, a_idx, b_idx, cost2 = _candidate_scores2([bsf])
    return [
        (_oriented(o, int(a), int(b)), cost2[p, o] / 2.0)
        for p, (a, b) in enumerate(zip(a_idx, b_idx))
        for o in range(len(_ORIENTATIONS))
    ]


def _best_cliffords_fast(tableaux: Sequence[BSF]) -> List[Clifford2Q]:
    """Each tableau's arg-min candidate under Eq. (6), from one scorer call.

    Ties resolve to the tableau's first minimal candidate in pair-major,
    orientation-minor order, matching the reference engine's
    strict-improvement scan.  Every tableau must have a candidate, which
    holds after the peel: a non-local row spans at least one pair.
    """
    t_idx, a_idx, b_idx, cost2 = _candidate_scores2(tableaux)
    tableau_ids = np.arange(len(tableaux))
    starts = np.searchsorted(t_idx, tableau_ids)
    best = np.minimum.reduceat(cost2.min(axis=1), starts)
    hits = np.flatnonzero(cost2 == best[t_idx][:, None])  # row-major order
    first = hits[np.searchsorted(t_idx[hits // len(_ORIENTATIONS)], tableau_ids)]
    pairs, orientations = np.divmod(first, len(_ORIENTATIONS))
    return [
        _oriented(int(o), int(a_idx[p]), int(b_idx[p]))
        for p, o in zip(pairs, orientations)
    ]


# ----------------------------------------------------------------------
# Reference engine: copy the tableau and rescore from scratch
# ----------------------------------------------------------------------
def _best_clifford_reference(bsf: BSF, cost_function) -> Tuple[Clifford2Q, BSF]:
    """The original O(candidates * rows^2 * qubits) scan, kept as the
    equivalence oracle and for custom cost functions."""
    candidates = _candidate_cliffords(_candidate_pairs(bsf))
    best_cost = None
    best_clifford = None
    best_bsf = None
    for clifford in candidates:
        trial = bsf.applied_clifford2q(clifford.kind, clifford.control, clifford.target)
        cost = cost_function(trial)
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost = cost
            best_clifford = clifford
            best_bsf = trial
    return best_clifford, best_bsf


_ANTICOMMUTING = {"X": "z", "Y": "x", "Z": "x"}


def _fallback_clifford(bsf: BSF) -> Clifford2Q:
    """A Clifford guaranteed to reduce the weight of the first row.

    For the first remaining row with Paulis ``alpha`` on qubit ``a`` and
    ``beta`` on qubit ``b``, the gate ``C(gamma, beta)_{a,b}`` with ``gamma``
    chosen to anticommute with ``alpha`` maps ``alpha_a beta_b -> alpha'_a``
    and so clears the row's entry on ``b``.  Always targeting the first row
    makes its weight strictly decrease until it is peeled as a local Pauli,
    which guarantees termination even if the greedy cost search stalls
    (other rows may temporarily gain weight, but only finitely many peels
    are needed).
    """
    row = 0
    support = np.flatnonzero(bsf.x[row] | bsf.z[row])
    a, b = int(support[0]), int(support[1])
    labels = {(True, False): "X", (True, True): "Y", (False, True): "Z"}
    alpha = labels[(bool(bsf.x[row, a]), bool(bsf.z[row, a]))]
    beta = labels[(bool(bsf.x[row, b]), bool(bsf.z[row, b]))]
    gamma = _ANTICOMMUTING[alpha]
    kind = gamma + beta.lower()
    if kind not in CLIFFORD2Q_KINDS:
        # C(s0, s1)_{a,b} == C(s1, s0)_{b,a}, so the missing orientations of
        # the generator set are obtained by swapping control and target.
        kind = kind[::-1]
        a, b = b, a
    return Clifford2Q(kind, a, b)


class _Search:
    """One group's Algorithm 1 state while the lock-step epochs run."""

    __slots__ = ("result", "bsf", "row_ids", "max_epochs", "hard_limit", "level")

    def __init__(self, group: IRGroup, max_epochs: Optional[int]):
        if not group.terms:
            raise ValueError("cannot simplify an empty IR group")
        self.bsf = BSF.from_terms(group.terms)
        self.row_ids = list(range(len(group.terms)))
        self.result = SimplifiedGroup(group=group)
        if max_epochs is None:
            max_epochs = max(4, _MAX_EPOCH_FACTOR * self.bsf.num_qubits)
        self.max_epochs = max_epochs
        # The fallback reduces one row's weight per epoch, so it needs at most
        # (rows x qubits) further epochs after the greedy budget is exhausted.
        self.hard_limit = max_epochs + 2 * self.bsf.num_terms * self.bsf.num_qubits + 8
        self.level = SimplificationLevel()

    def peel(self) -> bool:
        """Start an epoch: peel local rows; True once the group is finished."""
        bsf = self.bsf
        support = bsf.x | bsf.z
        if int(np.count_nonzero(support.any(axis=0))) <= 2:
            return self._finish()
        level = self.level = SimplificationLevel()
        # Peel local rows (they are bare 1Q rotations).
        local_mask = support.sum(axis=1) <= 1
        if np.any(local_mask):
            level.local_terms = bsf.select_rows(local_mask).to_terms()
            level.local_indices = [self.row_ids[i] for i in np.flatnonzero(local_mask)]
            keep = ~local_mask
            self.bsf = bsf.select_rows(keep)
            self.row_ids = [self.row_ids[i] for i in np.flatnonzero(keep)]
            if int(np.count_nonzero(support[keep].any(axis=0))) <= 2:
                self.result.levels.append(level)
                return self._finish()
        return False

    def apply(self, clifford: Clifford2Q, conjugated: Optional[BSF] = None) -> None:
        """End the epoch with ``clifford`` (``conjugated``: the tableau after it)."""
        if conjugated is None:
            self.bsf.apply_clifford2q(clifford.kind, clifford.control, clifford.target)
        else:
            self.bsf = conjugated
        self.level.clifford = clifford
        result = self.result
        result.levels.append(self.level)
        result.epochs += 1
        if result.epochs > self.hard_limit:  # pragma: no cover - double safety net
            raise RuntimeError("BSF simplification failed to terminate")

    def _finish(self) -> bool:
        self.result.final_terms = self.bsf.to_terms()
        self.result.final_indices = list(self.row_ids)
        return True


def simplify_groups(
    groups: Sequence[IRGroup],
    max_epochs: Optional[int] = None,
    cost_function=bsf_cost,
    engine: str = "auto",
) -> List[SimplifiedGroup]:
    """Run Algorithm 1 on every IR group of a program, in lock-step epochs.

    ``engine`` selects the candidate scorer: ``"fast"`` (incremental,
    bit-packed, one scorer call per epoch for all groups), ``"reference"``
    (copy-and-rescore per group), or ``"auto"`` (fast when the cost is the
    stock Eq. (6), reference otherwise).  Both engines choose bit-identical
    Clifford sequences, and each group's result is the one it would get
    alone.  The groups must share the register width.
    """
    if engine not in ("auto", "fast", "reference"):
        raise ValueError(f"unknown simplify engine {engine!r}")
    if engine == "fast" and cost_function is not bsf_cost:
        raise ValueError(
            "engine='fast' scores the stock Eq. (6) cost only; use "
            "engine='auto' or 'reference' for custom cost functions"
        )
    use_fast = engine == "fast" or (engine == "auto" and cost_function is bsf_cost)
    searches = [_Search(group, max_epochs) for group in groups]

    running = searches
    while running:
        unfinished: List[_Search] = []
        batch: List[_Search] = []
        for search in running:
            if search.peel():
                continue
            unfinished.append(search)
            if search.result.epochs >= search.max_epochs:
                # Greedy budget exhausted: fall back to guaranteed single-row
                # weight reduction until the tableau is small enough.
                search.apply(_fallback_clifford(search.bsf))
            elif use_fast:
                batch.append(search)
            else:
                search.apply(*_best_clifford_reference(search.bsf, cost_function))
        if batch:
            cliffords = _best_cliffords_fast([search.bsf for search in batch])
            for search, clifford in zip(batch, cliffords):
                search.apply(clifford)
        running = unfinished
    return [search.result for search in searches]


def simplify_group(
    group: IRGroup,
    max_epochs: Optional[int] = None,
    cost_function=bsf_cost,
    engine: str = "auto",
) -> SimplifiedGroup:
    """Run Algorithm 1 on one IR group (a batch of one, see :func:`simplify_groups`)."""
    return simplify_groups([group], max_epochs, cost_function, engine)[0]
