"""Store reference outputs for the default seed (0) under ``reference/``.

    python3 bench/make_reference.py

Run from the repository root, on code whose outputs are known good.  The
gate compares every op whose input has a stored reference, so re-running
this script is a deliberate statement that the program's outputs changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent

# Ops stored per workload: more than a default-seed run completes today.
STORED_OPS = {"gauss-sweep": None, "rr-validity": 1000, "dpsgd-audit": 300}


def main() -> int:
    dp, _ = worker.import_program(str(BENCH.parent))
    for name, n_ops in STORED_OPS.items():
        wl = worker.WORKLOADS[name](dp, 0)
        refs = {}
        for i in range(n_ops or wl.pass_len):
            inp = wl.op_input(i)
            rec = wl.record(inp, wl.run(inp))
            rec.pop("eps_lb_text", None)
            refs[wl.ref_key(inp)] = rec
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(refs.items())]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n",
                        encoding="utf-8")
        print(f"{name}: {len(refs)} reference outputs -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
