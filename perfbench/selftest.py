"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Kept out of the repository's test suite: it compiles the full pinned suite
several times (about two minutes on two cores).  It checks that

* each workload runs at reduced length and its outputs check clean;
* at a non-default seed every workload produces the same bytes per job;
* one traced batch per workload yields spans nested under the batch span;
* a tampered output counts as failed and makes the command exit 1;
* self time is duration minus the union of the (overlapping) children.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402

OTHER_SEED = 5
REDUCED_SAMPLES = 16  # one batch; the p90 is then left out


def check_self_time_arithmetic():
    def span(name, start, end, parent=None):
        s = tracing.Span(name, parent.span_id if parent else None, {})
        s.start, s.end = start, end
        return s

    root = span("batch", 0.0, 10.0)
    a = span("a", 1.0, 4.0, root)
    b = span("b", 3.0, 6.0, root)  # overlaps a: covered once
    c = span("c", 8.0, 12.0, root)  # runs past its parent: clipped at 10
    leaf = span("leaf", 1.5, 2.0, a)
    own = tracing.self_times([root, a, b, c, leaf])
    assert abs(own[root.span_id] - 3.0) < 1e-12, own[root.span_id]  # 10 - |[1,6] u [8,10]|
    assert abs(own[a.span_id] - 2.5) < 1e-12, own[a.span_id]
    assert abs(own[b.span_id] - 3.0) < 1e-12
    assert abs(own[c.span_id] - 4.0) < 1e-12
    assert tracing.covered_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == 3.0
    print("ok  self-time arithmetic on overlapping spans")


def check_reduced_runs():
    digests = {}
    for name in run.WORKLOADS:
        outcome = run.run_workload(name, OTHER_SEED, 0.0, False,
                                   min_samples=REDUCED_SAMPLES)
        check = outcome.check
        assert check.correct and check.attempted >= 16, (name, check.failures)
        missing = {"jobs_per_s", "job_p50_s", "cx_total", "depth2q_total",
                   "peak_rss_mb", "setup_s"} - set(outcome.metrics)
        assert not missing, (name, missing)
        digests[name] = dict(check.reference)
        print(f"ok  {name} reduced run at seed {OTHER_SEED}: "
              f"{check.attempted} outputs checked")
    first = digests[run.WORKLOADS[0]]
    for name, other in digests.items():
        assert other == first, f"{name} output bytes differ from {run.WORKLOADS[0]}"
    print(f"ok  byte identity across workloads at seed {OTHER_SEED}")


def check_traced_batches():
    expected_layers = {
        "cold-serial": {"pipeline.simplify", "serialize.encode", "service.cache.put",
                        "serialize.json", "service.executor.run"},
        "warm-disk": {"service.cache.key", "service.cache.get", "serialize.decode"},
        "resident-mixed": {"service.executor.run", "service.executor.worker",
                           "serialize.decode", "service.cache.put"},
    }
    for name in run.WORKLOADS:
        outcome = run.run_workload(name, suite.DEFAULT_SEED, 0.0, True)
        spans = outcome.tracer.spans
        by_id = {s.span_id: s for s in spans}
        batches = [s for s in spans if s.name == "batch"]
        assert len(batches) == run.WORKLOAD_TYPES[name].block, (name, len(batches))
        for s in spans:
            if s.name == "batch":
                continue
            parent = by_id.get(s.parent_id)
            assert parent is not None, (name, s.name, "orphan span")
            assert parent.start <= s.start and s.end <= parent.end, (name, s.name)
            while parent.name != "batch":
                parent = by_id[parent.parent_id]
        missing = expected_layers[name] - {s.name for s in spans}
        assert not missing, (name, missing)
        assert outcome.check.correct, outcome.check.failures
        print(f"ok  {name} traced: {len(spans)} spans nest under "
              f"{len(batches)} batch span(s)")


def check_tampered_output():
    jobs = suite.build_jobs(suite.DEFAULT_SEED)
    expected = json.loads(suite.EXPECTED_PATH.read_text(encoding="utf-8"))
    from repro.service.service import CompilationService

    results = CompilationService(executor="serial").compile_many(jobs[-2:])
    check = suite.OutputCheck(jobs, suite.DEFAULT_SEED)
    check.check(results)
    assert check.correct, check.failures
    results[0].result.metrics = type(results[0].result.metrics)(
        **{**results[0].result.metrics.as_dict(), "cx_count": 0})
    results[1].result.implemented_terms = results[1].result.implemented_terms[1:]
    check.check(results)
    assert (check.attempted, check.failed) == (4, 2), (check.attempted, check.failed)
    print("ok  tampered outputs counted as failed")

    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        tampered = Path(tmp) / "expected.json"
        name = next(iter(expected["jobs"]))
        expected["jobs"][name]["sha256"] = "0" * 64
        tampered.write_text(json.dumps(expected), encoding="utf-8")
        saved, suite.EXPECTED_PATH = suite.EXPECTED_PATH, tampered
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "warm-disk", "--seed", "0",
                                 "--seconds", "0"])
        finally:
            suite.EXPECTED_PATH = saved
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] >= 1, (code, last)
    print("ok  a wrong output makes the command exit 1")


def main() -> int:
    check_self_time_arithmetic()
    check_tampered_output()
    check_traced_batches()
    check_reduced_runs()
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
