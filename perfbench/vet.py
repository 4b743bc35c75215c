"""Run every menu entry of every workload once, checked, and report the outcome.

    python3 perfbench/vet.py    # accepted entries must pass

Each accepted entry runs with the slot's other menus at their first entry.
Each entry in a workload's `rejected` list runs too and its outcome is shown
next to the recorded reason.  Nothing is written: `golden.json` holds the
tables of the commit that defined the benchmark and is not regenerated.
"""

from __future__ import annotations

import sys
import time

from run import load_program


def vet_op(op) -> tuple:
    t0 = time.perf_counter()
    error = ops.run_checked(op)
    return error, time.perf_counter() - t0


def main() -> int:
    bad = 0
    for workload, spec in ops.MENUS.items():
        menus = spec["menus"]
        for slot in spec["slots"]:
            names = ops.SLOTS[slot].menus
            base = {m: menus[m][0] for m in names}
            variants = [base]
            for m in names:
                variants += [dict(base, **{m: entry}) for entry in menus[m][1:]]
            for params in variants:
                error, dt = vet_op(ops.SLOTS[slot].make(**params))
                bad += error is not None
                print(f"{'FAIL' if error else 'ok  '} {dt:7.3f}s {workload} {slot} {params} {error or ''}")
        for entry in spec["rejected"]:
            slot = entry["slot"]
            params = {m: menus[m][0] for m in ops.SLOTS[slot].menus}
            params.update(entry["params"])
            error, dt = vet_op(ops.SLOTS[slot].make(**params))
            print(f"rejected {dt:7.3f}s {workload} {slot} {entry['params']}: "
                  f"{error or 'passes'} -- recorded reason: {entry['reason']}")
    print(f"{bad} accepted entries failed")
    return 1 if bad else 0


if __name__ == "__main__":
    load_program()
    import ops

    sys.exit(main())
