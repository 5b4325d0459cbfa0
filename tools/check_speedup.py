#!/usr/bin/env python3
"""CI regression gate over an E12 speedup JSON artifact.

Reads the ``BENCH_e12.json`` written by ``pres bench e12 --json`` and
fails (exit 1) when the parallel engine has regressed:

* any arm reports ``matches_serial: false`` — it disagrees with the
  ``serial`` arm (the engine at ``jobs=1``, in-process) on attempts,
  success or winner: the deterministic-merge contract broke, which is
  a correctness bug whatever the wall times;
* the ``pool jobs=4`` arm's wall speedup over the ``serial`` arm fell
  below the floor (default 1.5x — the CI runner has spare cores, so the
  warm pool must actually beat the in-process engine);
* the ``pool jobs=4`` arm made no schedule-prefix resumes
  (``prefix_hits == 0``) — the memoization path silently stopped
  engaging;
* the ``serial`` arm answered no attempt from an equivalent folded one
  (``equivalent_skips == 0``) — the gate-footprint skip silently
  stopped engaging;
* the ``serial`` arm left no execution unmined (``mine_skips == 0``) —
  the mining horizon silently stopped closing tiers, though the E12
  walk runs out of budget inside depth 3.

The speedup floor is only enforced when the host really had more usable
cores than the arm asked for (``meta.host_cpus``); on a starved runner
the gate reports the measurement but only the correctness checks fail
the build.  Used by the ``speedup-gate`` CI job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

#: minimum acceptable wall speedup for the widest pool arm on a
#: multi-core runner (ISSUE acceptance asks for >2x; the gate floor is
#: deliberately looser so runner noise cannot flake the build).
SPEEDUP_FLOOR = 1.5
GATED_ARM = "pool jobs=4"
SERIAL_ARM = "serial"


def check(data: Dict[str, Any], floor: float = SPEEDUP_FLOOR) -> List[str]:
    """Every gate failure in ``data`` (an E12 BenchResult JSON dict)."""
    failures: List[str] = []
    records = data.get("records", [])
    meta = data.get("meta", {})
    if not records:
        return ["no arms in the artifact (records is empty)"]

    for arm in records:
        if not arm.get("matches_serial", False):
            failures.append(
                f"{arm.get('label', '?')}: matches_serial is false — "
                "the deterministic-merge contract broke"
            )

    gated = next((a for a in records if a.get("label") == GATED_ARM), None)
    if gated is None:
        failures.append(f"artifact has no '{GATED_ARM}' arm")
        return failures

    host_cpus = int(meta.get("host_cpus", 0))
    enough_cores = host_cpus >= int(gated.get("jobs", 0))
    speedup = float(gated.get("speedup", 0.0))
    if enough_cores and speedup < floor:
        failures.append(
            f"{GATED_ARM}: speedup {speedup:.2f}x is below the "
            f"{floor:.1f}x floor on a {host_cpus}-core host"
        )
    if int(gated.get("prefix_hits", 0)) <= 0:
        failures.append(
            f"{GATED_ARM}: prefix_hits is 0 — schedule-prefix "
            "memoization never engaged"
        )
    serial = next((a for a in records if a.get("label") == SERIAL_ARM), None)
    if serial is None:
        failures.append(f"artifact has no '{SERIAL_ARM}' arm")
    else:
        if int(serial.get("equivalent_skips", 0)) <= 0:
            failures.append(
                f"{SERIAL_ARM}: equivalent_skips is 0 — no attempt was "
                "answered from an equivalent folded one"
            )
        if int(serial.get("mine_skips", 0)) <= 0:
            failures.append(
                f"{SERIAL_ARM}: mine_skips is 0 — no tier the budget "
                "cannot reach was left unmined"
            )
    return failures


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: check_speedup.py BENCH_e12.json", file=sys.stderr)
        return 2
    path = Path(argv[0])
    data = json.loads(path.read_text(encoding="utf-8"))
    meta = data.get("meta", {})
    if "warning" in meta:
        print(f"note: {meta['warning']}")
    for arm in data.get("records", []):
        print(
            f"  {arm.get('label', '?'):>16}: {arm.get('speedup', 0):>6}x, "
            f"prefix_hits={arm.get('prefix_hits', 0)}, "
            f"equivalent_skips={arm.get('equivalent_skips', 0)}, "
            f"mine_skips={arm.get('mine_skips', 0)}, "
            f"matches_serial={arm.get('matches_serial')}"
        )
    failures = check(data)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("speedup gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
