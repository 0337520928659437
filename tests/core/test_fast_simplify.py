"""Equivalence property tests for the fast Clifford2Q search engine.

The fast engine must be an *exact* drop-in for the reference engine: the
incremental candidate scores equal the Eq. (6) cost recomputed from scratch
on a conjugated copy, and ``simplify_group`` picks bit-identical Clifford
sequences and final terms through either engine.  ``simplify_groups`` scores
a whole program's groups in one batch per epoch; every group of a batch
must get exactly the result the reference engine gives it alone.
"""

import numpy as np
import pytest

from repro.core.cost import bsf_cost, bsf_cost_reference
from repro.core.grouping import IRGroup, group_terms
from repro.core.simplify import (
    _candidate_cliffords,
    _candidate_pairs,
    _candidate_scores2,
    fast_candidate_costs,
    simplify_group,
    simplify_groups,
)
from repro.paulis.bsf import BSF
from repro.paulis.pauli import PauliTerm
from tests.conftest import random_term


def _random_bsf(rng, rows, qubits, density=0.35):
    x = rng.random((rows, qubits)) < density
    z = rng.random((rows, qubits)) < density
    return BSF(x, z)


def _clifford_key(clifford):
    return (clifford.kind, clifford.control, clifford.target)


def _term_key(term):
    return (term.string.to_label(), term.coefficient)


class TestIncrementalScores:
    def test_scores_equal_rescoring_conjugated_copy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            rows = int(rng.integers(1, 24))
            qubits = int(rng.integers(2, 11))
            bsf = _random_bsf(rng, rows, qubits)
            scored = fast_candidate_costs(bsf)
            reference = _candidate_cliffords(_candidate_pairs(bsf))
            assert [_clifford_key(c) for c, _ in scored] == [
                _clifford_key(c) for c in reference
            ]
            for clifford, fast_cost in scored:
                trial = bsf.applied_clifford2q(
                    clifford.kind, clifford.control, clifford.target
                )
                assert fast_cost == bsf_cost_reference(trial)
                assert fast_cost == bsf_cost(trial)

    def test_scores_exact_beyond_64_rows(self):
        # More rows than one uint64 word: exercises the multi-word masks.
        rng = np.random.default_rng(9)
        bsf = _random_bsf(rng, 80, 6, density=0.3)
        for clifford, fast_cost in fast_candidate_costs(bsf):
            trial = bsf.applied_clifford2q(
                clifford.kind, clifford.control, clifford.target
            )
            assert fast_cost == bsf_cost(trial)

    def test_local_rows_crossing_threshold_are_tracked(self):
        # Rows of weight 1 can become non-local and weight-2/3 rows can
        # become local; both move the n_nl^2 bias term.
        bsf = BSF.from_labels(
            [("XII", 1.0), ("ZZI", 1.0), ("YYY", 1.0), ("IXZ", 1.0)]
        )
        for clifford, fast_cost in fast_candidate_costs(bsf):
            trial = bsf.applied_clifford2q(
                clifford.kind, clifford.control, clifford.target
            )
            assert fast_cost == bsf_cost_reference(trial)


def _assert_same_result(fast, reference):
    assert [_clifford_key(c) for c in fast.cliffords] == [
        _clifford_key(c) for c in reference.cliffords
    ]
    assert [_term_key(t) for t in fast.final_terms] == [
        _term_key(t) for t in reference.final_terms
    ]
    assert fast.final_indices == reference.final_indices
    assert fast.implemented_order == reference.implemented_order
    assert fast.epochs == reference.epochs
    assert len(fast.levels) == len(reference.levels)
    for level_fast, level_ref in zip(fast.levels, reference.levels):
        assert level_fast.local_indices == level_ref.local_indices
        assert [_term_key(t) for t in level_fast.local_terms] == [
            _term_key(t) for t in level_ref.local_terms
        ]


class TestEnginesChooseIdentically:
    def _assert_identical(self, group):
        fast = simplify_group(group, engine="fast")
        reference = simplify_group(group, engine="reference")
        _assert_same_result(fast, reference)

    def test_random_groups_bit_identical(self, rng):
        for support in ([0, 1, 2, 3], [0, 2, 3, 5], [1, 2, 3, 4, 6]):
            for _ in range(4):
                terms = [random_term(rng, support, 7) for _ in range(6)]
                self._assert_identical(group_terms(terms)[0])

    def test_paper_example_bit_identical(self):
        terms = [
            PauliTerm.from_label(lbl, 0.1 * (i + 1))
            for i, lbl in enumerate(["ZYY", "ZZY", "XYY", "XZY"])
        ]
        self._assert_identical(group_terms(terms)[0])

    def test_fallback_epochs_bit_identical(self, rng):
        # Exhausted greedy budget: both engines defer to the same fallback.
        terms = [random_term(rng, [0, 1, 2, 3], 4) for _ in range(5)]
        group = group_terms(terms)[0]
        fast = simplify_group(group, max_epochs=0, engine="fast")
        reference = simplify_group(group, max_epochs=0, engine="reference")
        assert [_clifford_key(c) for c in fast.cliffords] == [
            _clifford_key(c) for c in reference.cliffords
        ]

    def test_auto_uses_reference_for_custom_cost(self, rng):
        # A custom cost function cannot be scored incrementally; the auto
        # engine must route it through the reference scan unchanged.
        terms = [random_term(rng, [0, 1, 2, 3], 4) for _ in range(5)]
        group = group_terms(terms)[0]
        custom = lambda b: float(b.total_weight())  # noqa: E731
        auto = simplify_group(group, cost_function=custom, engine="auto")
        reference = simplify_group(group, cost_function=custom, engine="reference")
        assert [_clifford_key(c) for c in auto.cliffords] == [
            _clifford_key(c) for c in reference.cliffords
        ]

    def test_unknown_engine_rejected(self, rng):
        terms = [random_term(rng, [0, 1, 2], 3) for _ in range(3)]
        group = group_terms(terms)[0]
        with pytest.raises(ValueError):
            simplify_group(group, engine="warp")

    def test_fast_engine_rejects_custom_cost(self, rng):
        # The fast scorer is hard-wired to Eq. (6); silently optimising the
        # wrong objective would be a footgun, so it must refuse.
        terms = [random_term(rng, [0, 1, 2], 3) for _ in range(3)]
        group = group_terms(terms)[0]
        with pytest.raises(ValueError, match="custom cost"):
            simplify_group(
                group, cost_function=lambda b: float(b.total_weight()), engine="fast"
            )


#: Register width shared by every group of the batched tests.
_WIDTH = 8


def _random_group(rng, support, rows):
    return IRGroup(
        tuple(support), [random_term(rng, support, _WIDTH) for _ in range(rows)]
    )


def _labelled_group(labels):
    terms = [PauliTerm.from_label(lbl, 0.1 * (i + 1)) for i, lbl in enumerate(labels)]
    (group,) = group_terms(terms)
    return group


def _mixed_batch(rng):
    """Row counts from 1 to 130, so word counts (1-3) differ within the batch."""
    shapes = [
        ([0, 1, 2], 1),
        ([0, 1, 2, 3], 3),
        ([2, 3, 5, 7], 64),
        ([0, 1, 2, 3, 4], 65),
        ([1, 2, 3, 4, 5, 6], 9),
        ([0, 4, 5], 2),
        ([0, 1, 2, 3, 4, 5, 6, 7], 130),
        ([3, 6], 4),
        ([1, 3, 4, 6, 7], 20),
    ]
    return [_random_group(rng, support, rows) for support, rows in shapes]


def _tie_heavy_batch():
    """Symmetric tableaux: many candidates share the minimal Eq. (6) cost."""
    return [
        _labelled_group(["XXXXXXII"]),
        _labelled_group(["ZZZZIIII", "YYYYIIII", "XXXXIIII"]),
        _labelled_group(["IIXXXXXX", "IIZZZZZZ"]),
        _labelled_group(["XYXYIIII", "YXYXIIII"]),
        _labelled_group(["IIIIZZZZ", "IIIIZZZZ"]),
    ]


def _assert_batch_matches_reference(groups, **kwargs):
    batched = simplify_groups(groups, **kwargs)
    assert len(batched) == len(groups)
    for group, result in zip(groups, batched):
        assert result.group is group
        _assert_same_result(
            result, simplify_group(group, engine="reference", **kwargs)
        )
    return batched


class TestBatchedSearch:
    def test_batch_scores_equal_per_tableau_scores(self):
        # Packing, padding and pair enumeration must not leak across the
        # tableaux of one scorer call, whatever their word counts.
        rng = np.random.default_rng(5)
        tableaux = [
            _random_bsf(rng, rows, _WIDTH, density=0.3)
            for rows in (1, 70, 3, 64, 65, 130, 12)
        ]
        t_idx, a_idx, b_idx, cost2 = _candidate_scores2(tableaux)
        for t, bsf in enumerate(tableaux):
            _, a_one, b_one, cost_one = _candidate_scores2([bsf])
            mine = t_idx == t
            assert np.array_equal(a_idx[mine], a_one)
            assert np.array_equal(b_idx[mine], b_one)
            assert np.array_equal(cost2[mine], cost_one)
            assert [(int(a), int(b)) for a, b in zip(a_one, b_one)] == _candidate_pairs(bsf)

    def test_mixed_row_counts_match_reference(self):
        rng = np.random.default_rng(17)
        batched = _assert_batch_matches_reference(_mixed_batch(rng))
        # The groups finish at different epochs, so the batch shrinks.
        assert len({result.epochs for result in batched}) > 2

    def test_fallback_groups_beside_greedy_groups(self):
        rng = np.random.default_rng(23)
        groups = _mixed_batch(rng)
        # Budget 0: every group that needs a Clifford takes the fallback.
        _assert_batch_matches_reference(groups, max_epochs=0)
        # Budget 1: groups done after one greedy epoch finish beside groups
        # that continue on the fallback.
        batched = _assert_batch_matches_reference(groups, max_epochs=1)
        assert any(result.epochs == 1 for result in batched)
        assert any(result.epochs > 1 for result in batched)

    def test_tie_heavy_tableaux_keep_each_groups_first_minimum(self):
        groups = _tie_heavy_batch()
        for group in groups:
            costs = [cost for _, cost in fast_candidate_costs(BSF.from_terms(group.terms))]
            assert costs.count(min(costs)) > 1
        _assert_batch_matches_reference(groups)
        # The same groups in the opposite order: a group's choice must not
        # depend on its neighbours in the batch.
        _assert_batch_matches_reference(groups[::-1])
        rng = np.random.default_rng(31)
        _assert_batch_matches_reference(_mixed_batch(rng)[:4] + groups)

    def test_empty_group_in_batch_rejected(self, rng):
        groups = _mixed_batch(rng)[:3]
        with pytest.raises(ValueError, match="empty"):
            simplify_groups(groups + [IRGroup(qubits=(0, 1))] + groups)

    def test_empty_batch(self):
        assert simplify_groups([]) == []

    def test_engine_validation_applies_to_batches(self, rng):
        groups = _mixed_batch(rng)[:2]
        with pytest.raises(ValueError):
            simplify_groups(groups, engine="warp")
        with pytest.raises(ValueError, match="custom cost"):
            simplify_groups(
                groups, cost_function=lambda b: float(b.total_weight()), engine="fast"
            )


class TestClosedFormCost:
    def test_matches_reference_on_random_tableaux(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rows = int(rng.integers(1, 20))
            qubits = int(rng.integers(1, 14))
            bsf = _random_bsf(rng, rows, qubits, density=float(rng.uniform(0.1, 0.7)))
            assert bsf_cost(bsf) == bsf_cost_reference(bsf)
