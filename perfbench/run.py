"""Service benchmark: one closed-loop client over ``CompilationService``.

    python3 perfbench/run.py --workload cold-serial --seed 0 --seconds 15 --trace 0

One client submits 16-job batches of the pinned suite (seeded families
redrawn from ``--seed``) to ``CompilationService.compile_many`` and sends
the next batch only after the previous one returns.  Each batch starts
from the same state: the previous results are dropped and ``gc.collect()``
runs before the timed call.  Outputs are checked after each batch, outside
the timed region.  Timings are reported in reference seconds (see
``machine_probe``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
exit code is 1 when any output is wrong, 2 when the program cannot run.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run-time files (disk caches, traces) stay inside the checkout.
WORK_ROOT = ROOT / ".perfbench"

WORKLOADS = ("cold-serial", "warm-disk", "resident-mixed")
POOL_WORKERS = 2
#: Seven 16-job batches: the p90 needs at least ten samples beyond it.
MIN_SAMPLES = 112
#: Builds of the suite during set-up; ``workloads.build_s`` is their median.
BUILD_REPEATS = 3
#: What ``machine_probe`` takes on this benchmark's reference machine speed.
PROBE_REF_S = 0.1


class _ProbeRow:
    __slots__ = ("name", "qubits", "params")

    def __init__(self, name: str, qubits: Sequence[int], params: Sequence[float]):
        if not isinstance(name, str):
            raise TypeError(name)
        self.name = name
        self.qubits = tuple(qubits)
        self.params = tuple(float(p) for p in params)


def machine_probe() -> float:
    """Seconds for a fixed piece of work that does not touch the program.

    The two-core machine this benchmark was tuned on runs the same code up
    to 40% slower for seconds to minutes at a time, for reasons outside
    the process.  The probe runs just before each timed batch and after
    the last one, outside the timed region and after ``gc.collect()``, so
    the previous results are gone and each probe starts from the same
    state.  The reported timings are scaled to the speed at which the
    probe takes ``PROBE_REF_S``.  Its four parts, of about equal time,
    mirror what the service spends time on: a JSON round trip and a sort,
    small objects built and validated, small numpy bit and matrix
    operations, and integer arithmetic.  The collector is off during the
    probe, so the size of the benchmark's own heap does not enter it.
    """
    import numpy as np

    gc.disable()
    try:
        started = time.perf_counter()
        rows = [{"name": f"g{i}", "qubits": [i % 7, (i * 3) % 11], "params": [i * 0.5]}
                for i in range(5000)]
        rows = json.loads(json.dumps(rows, sort_keys=True))
        rows.sort(key=lambda row: (row["qubits"][1], row["name"]))
        objects = [_ProbeRow("cx" if i % 3 else "u3", (i % 13, (i * 7) % 17), (i * 0.1,))
                   for i in range(4500)]
        total = sum(len(o.params) for o in objects if o.qubits[0] != o.qubits[1])
        words = np.arange(1, 65, dtype=np.uint64)
        matrix = np.eye(8)
        for i in range(3500):
            total += np.count_nonzero(words & (words >> np.uint64(i % 7)))
            matrix = matrix @ matrix * 0.1 + np.eye(8)
        for i in range(300000):
            total += i * i % 7
        return time.perf_counter() - started
    finally:
        gc.enable()


class Workload:
    """How one workload sets up, opens a service per batch, and cleans up.

    ``block`` batches form one unit: runs end, and traced runs alternate
    traced and untraced, only on block boundaries.
    """

    block = 1
    pool = False

    def __init__(self, jobs, work: Path, tracer, check):
        self.jobs = jobs
        self.work = work
        self.tracer = tracer
        self.check = check

    def make_service(self, cache, executor: str, **kwargs):
        from repro.service.executor import ProcessExecutor, SerialExecutor
        from repro.service.service import CompilationService
        from tracing import TracedCache, TracedExecutor, trace_job_key

        if self.tracer is None:
            return CompilationService(cache=cache, executor=executor, **kwargs)
        service = CompilationService(cache=TracedCache(cache, self.tracer), **kwargs)
        inner = (
            ProcessExecutor(max_workers=POOL_WORKERS, keep_alive=True,
                            breaker=service.pool_breaker)
            if executor == "process" else SerialExecutor()
        )
        workers = POOL_WORKERS if executor == "process" else 1
        service.executor = TracedExecutor(inner, self.tracer, workers=workers)
        trace_job_key(service, self.tracer)
        return service

    def setup(self) -> float:
        """Work before the first timed batch; returns its seconds (fill)."""
        return 0.0

    def before_batch(self, index: int):
        raise NotImplementedError

    def after_batch(self, service, index: int) -> None:
        service.close()

    def close(self) -> None:
        pass


class ColdSerial(Workload):
    """A fresh service over an empty disk cache for every batch, serial
    executor: every job misses, compiles, encodes and is written."""

    def before_batch(self, index):
        from repro.service.cache import open_cache

        self._dir = self.work / f"cold-{index}"
        return self.make_service(open_cache(f"disk:{self._dir}"), "serial")

    def after_batch(self, service, index):
        service.close()
        shutil.rmtree(self._dir, ignore_errors=True)


class WarmDisk(Workload):
    """Set-up fills a disk cache; each batch opens a fresh service over it,
    as re-running ``phoenix batch`` does, so every job is a disk hit."""

    def setup(self):
        from repro.service.cache import open_cache
        from repro.service.service import CompilationService

        self._spec = f"disk:{self.work / 'warm'}"
        started = time.perf_counter()
        with CompilationService(cache=open_cache(self._spec), executor="process",
                                max_workers=POOL_WORKERS) as service:
            results = service.compile_many(self.jobs)
        fill_s = time.perf_counter() - started
        self.check.check(results)
        return fill_s

    def before_batch(self, index):
        from repro.service.cache import open_cache

        return self.make_service(open_cache(self._spec), "serial")


class ResidentMixed(Workload):
    """One long-lived ``keep_alive`` service with a warm 2-worker pool over
    memory and disk tiers, as ``phoenix serve --cache-dir`` runs.  Before
    each batch the cache is reset to hold exactly one half of the jobs,
    alternating with its complement: 8 hits beside 8 misses per batch, and
    each job compiled once and hit once per two-batch cycle."""

    block = 2
    pool = True

    def setup(self):
        from repro.service.cache import open_cache

        self._cache = open_cache(f"disk:{self.work / 'resident'}")
        self._service = self.make_service(self._cache, "process",
                                          max_workers=POOL_WORKERS, keep_alive=True)
        keys = [self._service.job_key(job) for job in self.jobs]
        self._halves = (keys[0::2], keys[1::2])
        started = time.perf_counter()
        results = self._service.compile_many(self.jobs[0::2])
        fill_s = time.perf_counter() - started
        self.check.check(results)
        return fill_s

    def before_batch(self, index):
        # Batch ``index`` holds half ``index % 2`` and compiles the other.
        for key in self._halves[(index + 1) % 2]:
            self._cache.delete(key)
        return self._service

    def after_batch(self, service, index):
        pass

    def close(self):
        self._service.close()


WORKLOAD_TYPES = {"cold-serial": ColdSerial, "warm-disk": WarmDisk,
                  "resident-mixed": ResidentMixed}


class Batch(NamedTuple):
    wall: float
    latencies: List[float]
    traced: bool
    totals: Tuple[int, int]


def run_batches(workload: Workload, seconds: float, tracer,
                min_samples: int = MIN_SAMPLES) -> Tuple[List[Batch], List[float]]:
    """Closed loop: one batch at a time until ``seconds`` of timed work.

    Untraced runs also go on until ``min_samples`` latencies exist.  Traced
    runs alternate traced and untraced blocks and end on an equal count.
    Returns the batches and the machine probes taken around them.
    """
    from suite import circuit_totals

    batches: List[Batch] = []
    timed = 0.0
    index = 0
    probes: List[float] = []
    while True:
        traced = tracer is not None and (index // workload.block) % 2 == 0
        service = workload.before_batch(index)
        stamps: List[float] = []

        def progress(event: Any) -> None:
            stamps.append(time.perf_counter())

        gc.collect()
        probes.append(machine_probe())
        if tracer is not None:
            tracer.enabled = traced
        scope = tracer.span("batch", index=index) if traced else nullcontext()
        started = time.perf_counter()
        with scope:
            results = service.compile_many(workload.jobs, progress=progress)
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.enabled = False
        workload.check.check(results)
        batches.append(Batch(wall, [stamp - started for stamp in stamps], traced,
                             circuit_totals(results)))
        workload.after_batch(service, index)
        results = service = None
        timed += wall
        index += 1
        if index % (2 * workload.block if tracer is not None else workload.block):
            continue
        samples = sum(len(batch.latencies) for batch in batches)
        if timed >= seconds and (tracer is not None or samples >= min_samples):
            gc.collect()
            probes.append(machine_probe())
            return batches, probes


def peak_rss_mb() -> float:
    """Peak RSS (VmHWM) of this process plus its live child processes."""
    def hwm_kb(pid: str) -> int:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        except OSError:
            pass
        return 0

    children = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            children.update((task / "children").read_text().split())
        except OSError:
            continue
    return (hwm_kb("self") + sum(hwm_kb(pid) for pid in children)) / 1024.0


def end_to_end(batches: Sequence[Batch], setup_s: float, rss_mb: float,
               slowness: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, timings in reference seconds: wall seconds
    divided by the run's machine slowness."""
    latencies = [value / slowness for batch in batches for value in batch.latencies]
    jobs = len(latencies)
    wall = sum(batch.wall for batch in batches)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    beyond = sum(1 for value in latencies if value > p90)
    cx_total, depth2q_total = batches[0].totals
    metrics = {
        "jobs_per_s": (jobs * slowness / wall, "jobs/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "cx_total": (cx_total, "gates"),
        "depth2q_total": (depth2q_total, "layers"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s / slowness, "s"),
    }
    print(f"latency samples: {jobs} over {len(batches)} batches, {beyond} beyond p90")
    print(f"wall clock: {jobs / wall:.4f} jobs/s, set-up {setup_s:.4f} s")
    if beyond >= 10:
        metrics["job_p90_s"] = (p90, "s")
    return metrics


class Outcome(NamedTuple):
    """What one run measured: the output check, metrics and set-up parts."""

    check: Any
    metrics: Dict[str, Tuple[float, str]]
    parts: Dict[str, float]
    tracer: Any


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, min_samples: int = MIN_SAMPLES) -> Outcome:
    """Set up ``name``, run its batches, and compute its metrics."""
    import suite
    import tracing

    build_times = []
    for _ in range(BUILD_REPEATS):
        started = time.perf_counter()
        jobs = suite.build_jobs(seed)
        build_times.append(time.perf_counter() - started)
    build_s = statistics.median(build_times)

    work = WORK_ROOT / f"work-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    check = suite.OutputCheck(jobs, seed)
    workload = WORKLOAD_TYPES[name](jobs, work, tracer, check)
    serializers = tracing.traced_serializers(tracer) if tracer else nullcontext()
    try:
        with serializers:
            fill_s = workload.setup()
            batches, probes = run_batches(workload, seconds, tracer, min_samples)
            rss_mb = peak_rss_mb()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    parts = {"setup.import_s": import_s, "workloads.build_s": build_s,
             "setup.fill_s": fill_s}
    setup_s = sum(parts.values())
    slowness = statistics.mean(probes) / PROBE_REF_S
    print(f"machine slowness {slowness:.4f} (mean of {len(probes)} probes, "
          f"min {min(probes) / PROBE_REF_S:.3f}, max {max(probes) / PROBE_REF_S:.3f})")
    if tracer is None:
        metrics = end_to_end(batches, setup_s, rss_mb, slowness)
    else:
        traced = [b for b in batches if b.traced]
        plain = [b for b in batches if not b.traced]
        metrics = tracing.layer_metrics(tracer.spans, len(traced), workload.pool)
        metrics["trace.overhead_ratio"] = (
            sum(b.wall for b in traced) / sum(b.wall for b in plain) - 1.0, "ratio")
        metrics.update({part: (value, "s") for part, value in parts.items()})
    return Outcome(check, metrics, parts, tracer)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import suite  # noqa: F401  (imports the program: part of set-up)
    import tracing  # noqa: F401
    import_s = time.perf_counter() - PROCESS_START

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s=import_s)
    check, metrics = outcome.check, outcome.metrics
    print(f"setup_s {sum(outcome.parts.values()):.4f} s = " + " + ".join(
        f"{name} {value:.4f}" for name, value in outcome.parts.items()))
    if outcome.tracer is not None:
        trace_path = WORK_ROOT / f"trace-{args.workload}-{args.seed}.jsonl"
        outcome.tracer.write(str(trace_path))
        print(f"trace: {len(outcome.tracer.spans)} spans written to {trace_path}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    print(f"failed/attempted: {check.failed}/{check.attempted}")
    for failure in check.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0 if check.correct else 1


if __name__ == "__main__":
    sys.exit(main())
