"""Batch compilation service: caching, parallel workers, CLI.

This subpackage is the serving layer over the compilers: a
content-addressed compilation cache (:mod:`repro.service.cache`, with
its sharded prunable disk tier in :mod:`repro.service.shardcache`), pluggable
serial/process execution backends (:mod:`repro.service.executor`), a
parallel batch compiler (:class:`CompilationService`), plain-data compiler
specs that survive process boundaries (:mod:`repro.service.registry`), and
the ``phoenix`` command line (:mod:`repro.service.cli`).

Resilience lives in three sibling modules: retry/breaker/shutdown
policies (:mod:`repro.service.resilience`), the crash-safe batch journal
(:mod:`repro.service.journal`), and the seeded fault-injection lab
(:mod:`repro.service.faultlab`) with its ``phoenix chaos`` harness
(:mod:`repro.service.chaos`).
"""

from repro.service.cache import (
    CacheStats,
    CacheStore,
    MemoryCacheStore,
    TieredCache,
    compilation_cache_key,
    open_cache,
)
from repro.service.cachespec import cache_from_spec, is_remote_spec, parse_spec
from repro.service.executor import (
    ProcessExecutor,
    SerialExecutor,
    default_worker_count,
    resolve_executor,
)
from repro.service.journal import BatchJournal, load_journal
from repro.service.registry import CompilerOptions, compiler_names, resolve_topology
from repro.service.resilience import (
    CircuitBreaker,
    RetryPolicy,
    RetrySession,
    shutdown_guard,
)
from repro.service.service import (
    CompilationJob,
    CompilationService,
    JobResult,
    ProgressEvent,
)
from repro.service.remotecache import RemoteCacheStore, RemoteCacheUnavailable
from repro.service.shardcache import DoctorReport, PruneReport, ShardedDiskCacheStore

__all__ = [
    "CacheStats",
    "CacheStore",
    "MemoryCacheStore",
    "DoctorReport",
    "ShardedDiskCacheStore",
    "PruneReport",
    "RemoteCacheStore",
    "RemoteCacheUnavailable",
    "TieredCache",
    "cache_from_spec",
    "compilation_cache_key",
    "is_remote_spec",
    "open_cache",
    "parse_spec",
    "CompilerOptions",
    "compiler_names",
    "resolve_topology",
    "CompilationJob",
    "CompilationService",
    "JobResult",
    "ProgressEvent",
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "default_worker_count",
    "RetryPolicy",
    "RetrySession",
    "CircuitBreaker",
    "shutdown_guard",
    "BatchJournal",
    "load_journal",
]
