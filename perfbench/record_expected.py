"""Re-record ``expected_seed0.json``: ``python3 perfbench/record_expected.py``.

Only for a deliberate change of the compiled output.  Compiles the
default-seed suite once with the serial executor over a memory cache.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from repro.service.service import CompilationService  # noqa: E402
from suite import DEFAULT_SEED, EXPECTED_PATH, build_jobs, record_expected  # noqa: E402


def main() -> int:
    results = CompilationService(executor="serial").compile_many(build_jobs(DEFAULT_SEED))
    failed = [r.name for r in results if not r.ok]
    if failed:
        print(f"jobs failed, nothing recorded: {failed}", file=sys.stderr)
        return 1
    EXPECTED_PATH.write_text(
        json.dumps(record_expected(results), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(results)} jobs to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
