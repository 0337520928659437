"""Service-layer benchmark: warm-cache batch compilation of the Table-1 suite.

Runs the UCCSD benchmark selection twice through
:class:`repro.service.CompilationService` — once cold (every job compiles,
fanned across workers) and once warm (every job is a content-addressed
cache hit) — and asserts the warm batch is at least 5x faster, with
identical metrics.  This is the serving-path counterpart of Table I: a
production deployment re-serving a previously compiled Hamiltonian must
never pay compilation latency again.
"""

import time

from benchmarks.conftest import FULL_SUITE, write_report
from repro.experiments import format_table
from repro.service import CompilationJob, CompilationService, CompilerOptions

import pytest

pytestmark = pytest.mark.slow

#: The warm batch must beat the cold batch by at least this factor.
MIN_SPEEDUP = 5.0


def test_warm_cache_batch_speedup(uccsd_programs):
    service = CompilationService()
    jobs = [
        CompilationJob(name, terms, CompilerOptions())
        for name, terms in uccsd_programs.items()
    ]

    started = time.perf_counter()
    cold_results = service.compile_many(jobs)
    cold_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    warm_results = service.compile_many(jobs)
    warm_elapsed = time.perf_counter() - started

    assert all(result.ok and not result.cached for result in cold_results)
    assert all(result.ok and result.cached for result in warm_results)
    for cold, warm in zip(cold_results, warm_results):
        assert warm.result.metrics == cold.result.metrics

    speedup = cold_elapsed / max(warm_elapsed, 1e-9)
    rows = [
        [cold.name, cold.result.metrics.cx_count, f"{cold.elapsed:.2f}s", "hit"]
        for cold in cold_results
    ]
    table = format_table(rows, headers=["Benchmark", "#CNOT", "cold compile", "warm"])
    table += (
        f"\n\ncold batch: {cold_elapsed:.2f}s   warm batch: {warm_elapsed*1000:.1f}ms"
        f"   speedup: {speedup:.0f}x (required >= {MIN_SPEEDUP:.0f}x)"
    )
    print("\nService cache — Table-1 UCCSD suite\n" + table)
    # Only the full Table I run records the table, so a default tier-1 run
    # cannot overwrite the committed numbers with a small slice.
    if FULL_SUITE:
        write_report("service_cache_speedup", table)

    assert speedup >= MIN_SPEEDUP, (
        f"warm-cache batch only {speedup:.1f}x faster "
        f"({cold_elapsed:.2f}s cold vs {warm_elapsed:.2f}s warm)"
    )
