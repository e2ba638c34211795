"""Record reference.json: the expected output of every pool entry.

    python3 perfbench/record_reference.py

Run it only when a change to epibound is meant to change outputs, and say
so in CHANGES.md; a mismatch in a benchmark run is otherwise a regression.
It takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import sys

from worker import WORK_DIR, load_epibound


def main() -> int:
    load_epibound()
    import workloads

    ref = {}
    for cls in (workloads.OracleSuite, workloads.NegativeTransfer, workloads.Neighborhood):
        w = cls(WORK_DIR / cls.name)
        entries = []
        for k in range(w.pool):
            entries.append(w.reference_entry(w.reduce(w.call(w.spec(k)))))
        ref[cls.name] = {"entries": entries}
        print(f"{cls.name}: {len(entries)} entries", file=sys.stderr)

    w = workloads.BoundVerify(WORK_DIR / workloads.BoundVerify.name)
    w.setup(0)
    ref[w.name] = {"verify_exit": [w.call(w.verify_spec(0, v))[0] for v in range(len(w.setups))]}
    workloads.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
