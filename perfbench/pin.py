"""Write perfbench/pins.json: the output digests the benchmark checks.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/pin.py

For the default seed and one held-out seed it records, per stand-in,
the sha256 of each WHOMP dimension's ``to_productions()`` (profile-both
stand-ins), of the LEAP entries, and of both LEAP post-processors'
results.  A change that keeps outputs bit-identical never needs to
re-pin; one that changes them on purpose re-pins and says so.
"""

from __future__ import annotations

import json
import sys

import run

PIN_SEEDS = (0, 7)


def main() -> int:
    run.import_program()
    import workload_profile as wp

    seeds = {}
    for seed in PIN_SEEDS:
        rows = {}
        for name in wp.LEAP_STANDINS:
            trace, __, leap, dependences, strides = wp.leap_untraced(name, seed, ".")
            rows[name] = {
                "leap": wp.leap_digest(leap),
                "dependence": wp.dependence_digest(dependences),
                "strides": wp.strides_digest(strides),
            }
            if name in wp.BOTH_STANDINS:
                from repro.profilers.whomp import WhompProfiler

                whomp = WhompProfiler().profile(trace)
                rows[name]["whomp"] = {
                    d: wp.productions_digest(g) for d, g in whomp.grammars.items()
                }
            print(f"seed {seed} {name}: pinned", file=sys.stderr)
        seeds[str(seed)] = rows
    with open(wp.PINS_PATH, "w") as handle:
        json.dump({"scale": wp.SCALE, "seeds": seeds}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
