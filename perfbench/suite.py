"""The benchmark's inputs and the check on every output.

Inputs are :data:`repro.bench.PINNED_SUITE` with the seeded families
redrawn from the workload seed; outputs are checked outside the timed
region against a recorded expected file (default seed) or against the
run's own first compilation of the same job (any other seed).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench import PINNED_SUITE, bench_jobs, result_content_bytes
from repro.service.service import CompilationJob, JobResult
from repro.workloads.registry import parse_workload_spec
from repro.workloads.workload import format_workload_spec

#: The seed at which the suite is exactly ``PINNED_SUITE`` and every
#: output must match the recorded expected file.
DEFAULT_SEED = 0

#: Families whose ``seed`` parameter the workload seed redraws.  Hubbard
#: disorder stays pinned: its instance is one point of a physical model,
#: not a random ensemble member.
SEEDED_FAMILIES = ("kpauli", "uccsd")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_seed0.json"

Suite = List[Tuple[str, str, Dict[str, Any]]]


def suite_for_seed(seed: int) -> Suite:
    """``PINNED_SUITE`` with the seeded families redrawn from ``seed``.

    The new seed of a spec depends only on ``(seed, spec)``, so jobs that
    share a spec (the five compilers on one UCCSD program) keep sharing it.
    """
    if seed == DEFAULT_SEED:
        return [(name, spec, dict(overrides)) for name, spec, overrides in PINNED_SUITE]
    suite: Suite = []
    for name, spec, overrides in PINNED_SUITE:
        family, params = parse_workload_spec(spec)
        if family in SEEDED_FAMILIES and not params.get("molecule"):
            params["seed"] = random.Random(f"{seed}/{spec}").randrange(2**31)
            spec = format_workload_spec(family, params)
        suite.append((name, spec, dict(overrides)))
    return suite


def build_jobs(seed: int) -> List[CompilationJob]:
    """The 16 compilation jobs of ``seed``, built through ``repro.workloads``."""
    return bench_jobs(suite_for_seed(seed))


def digest(job_result: JobResult) -> str:
    """SHA-256 of the job's canonical content bytes (cache key included,
    stage timings excluded)."""
    return hashlib.sha256(result_content_bytes(job_result)).hexdigest()


def _term_multiset(terms: Sequence[Any]) -> List[Tuple[str, float]]:
    return sorted((term.to_label(), float(term.coefficient)) for term in terms)


class OutputCheck:
    """Counts attempted and failed jobs; a failed job is an error result, a
    byte mismatch, or an output whose implemented terms are not a
    permutation of the input terms."""

    def __init__(self, jobs: Sequence[CompilationJob], seed: int,
                 expected: Optional[Dict[str, Any]] = None):
        self.inputs = {job.name: _term_multiset(job.terms()) for job in jobs}
        if expected is None and seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
        #: job name -> digest every output of that job must have; at other
        #: seeds it is filled from the first output seen.
        self.reference: Dict[str, str] = (
            {name: entry["sha256"] for name, entry in expected["jobs"].items()}
            if expected is not None else {}
        )
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {why}")

    def check(self, results: Sequence[JobResult]) -> None:
        for job_result in results:
            self.attempted += 1
            name = job_result.name
            if not job_result.ok or job_result.result is None:
                error = (job_result.error or "error").strip().splitlines()
                self._fail(name, f"status {job_result.status}: {error[-1] if error else ''}")
                continue
            actual = digest(job_result)
            wanted = self.reference.setdefault(name, actual)
            if actual != wanted:
                self._fail(name, f"content sha256 {actual[:12]} != expected {wanted[:12]}")
                continue
            implemented = _term_multiset(job_result.result.implemented_terms)
            if implemented != self.inputs.get(name):
                self._fail(name, "implemented terms are not a permutation of the input")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def circuit_totals(results: Sequence[JobResult]) -> Tuple[int, int]:
    """(#CNOT, 2Q depth) summed over the outputs of one batch."""
    metrics = [r.result.metrics for r in results if r.ok and r.result is not None]
    return sum(m.cx_count for m in metrics), sum(m.depth_2q for m in metrics)


def record_expected(results: Sequence[JobResult]) -> Dict[str, Any]:
    """The expected-file payload for a batch compiled at the default seed."""
    return {
        "seed": DEFAULT_SEED,
        "note": "sha256 of repro.bench.result_content_bytes per job",
        "jobs": {
            r.name: {
                "sha256": digest(r),
                "cx_count": r.result.metrics.cx_count,
                "depth_2q": r.result.metrics.depth_2q,
            }
            for r in results
        },
    }

