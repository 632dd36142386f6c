"""Record ``reference.json``: the expected outcome of every op of every workload.

Run from the repository root, once, at the commit whose behaviour the
benchmark locks:

    python3 perfbench/record_reference.py

Each entry is the digest of an op's canonical output (or of the exception
it raises); for cli-readme it is the exact stdout and exit code.  Outputs
that take a sampling seed are recorded with base 0 and must not change with
another base, and CLI outputs must not change with the hash seed, or
recording stops: the reference has to hold for every workload seed.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wls


def record(wl: wls.Workload) -> dict:
    out = {}
    for op in wl.universe():
        try:
            result, exc = wl.run(op), None
        except Exception as e:  # a raise is recorded as the op's outcome
            result, exc = None, e
        out[wl.key(op)] = wl.outcome(op, result, exc)
    return out


def main() -> int:
    os.chdir(wls.ROOT)
    reference = {}
    for name, cls in wls.WORKLOADS.items():
        wl = cls(None)
        reference[name] = record(wl)
        print(f"{name}: {len(reference[name])} ops", file=sys.stderr)

    oracle = wls.OracleExact(None)
    for op in oracle.universe():
        moved = op[:3] + (7919,)
        if oracle.outcome(moved, oracle.run(moved), None) != reference[oracle.name][oracle.key(op)]:
            raise SystemExit(f"{oracle.key(op)} depends on the sampling base")

    cli = wls.CliReadme(None)
    cli.env["PYTHONHASHSEED"] = "12345"
    for op in cli.universe():
        if cli.outcome(op, cli.run(op), None) != reference[cli.name][cli.key(op)]:
            raise SystemExit(f"{cli.key(op)} depends on the hash seed")

    with open(wls.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
