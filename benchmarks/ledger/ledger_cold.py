"""Cold-start child: a fresh interpreter that imports, compiles and runs one op.

``python ledger_cold.py WORKLOAD DOCUMENT`` — the parent times spawn to the
line printed here (``setup_s``); the traced pass reads the phase report.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload_name, document = argv
    started = time.perf_counter()
    import repro  # noqa: F401  (timed on its own: the static-analysis import cost)

    import_s = time.perf_counter() - started
    from ledger_inputs import WORKLOADS, query_text
    from ledger_workloads import Runner, outputs_digest

    workload = WORKLOADS[workload_name]
    runner = Runner(workload, {name: query_text(name) for name in workload.queries})
    started = time.perf_counter()
    outputs = runner.run(Path(document))
    first_op_s = time.perf_counter() - started
    print(
        json.dumps(
            {
                "import_ms": import_s * 1e3,
                "schema_load_ms": runner.schema_load_s * 1e3,
                "compile_ms": runner.compile_s * 1e3,
                "first_op_ms": first_op_s * 1e3,
                "digest": outputs_digest(outputs),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
