"""Stored outputs of a fixed set of simulator cells: the benchmark's fixed point.

Every run of a simulator workload re-runs the cells below on both engines,
after its timed loop, and compares each result's sha256 (over sorted-key
JSON) with ``golden_cells.json``.  The cells do not depend on ``--seed``,
so a change that alters what the oracle, the fast kernel, trace generation
or the energy model compute fails every run, even when the two engines
still agree with each other.

Regenerate the file only when a change is meant to alter model outputs:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden_cells.json"

GOLDEN_SEED = 42
GOLDEN_OPS = 2_000
ENGINES = ("oracle", "fast")

# (profile, policy, prefetcher enabled): each profile under mapg and the
# never-gate baseline, plus the prefetcher cell the fast kernel hands to
# the oracle.
CELLS: Tuple[Tuple[str, str, bool], ...] = tuple(
    (profile, policy, False)
    for profile in ("mcf_like", "gcc_like", "povray_like", "libquantum_like")
    for policy in ("mapg", "never")) + (("libquantum_like", "mapg", True),)


def cell_name(profile: str, policy: str, prefetch: bool) -> str:
    return f"{profile}/{policy}" + ("/prefetch" if prefetch else "")


def cell_digests(engine: str) -> Dict[str, str]:
    """Cell name -> sha256 of its result as sorted-key compact JSON."""
    from repro.config import PrefetcherConfig, SystemConfig
    from repro.exec import result_to_dict
    from repro.sim.runner import run_workload, with_policy

    digests = {}
    for profile, policy, prefetch in CELLS:
        config = SystemConfig()
        if prefetch:
            config = config.replace(
                prefetcher=PrefetcherConfig(enabled=True, degree=4))
        result = run_workload(with_policy(config, policy), profile,
                              GOLDEN_OPS, seed=GOLDEN_SEED, engine=engine)
        payload = json.dumps(result_to_dict(result), sort_keys=True,
                             separators=(",", ":"))
        digests[cell_name(profile, policy, prefetch)] = hashlib.sha256(
            payload.encode("utf-8")).hexdigest()
    return digests


def golden_failures() -> List[str]:
    """Every cell, on every engine, whose result differs from the stored one."""
    try:
        stored = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))["cells"]
    except (OSError, KeyError, ValueError) as exc:
        return [f"stored cell outputs unreadable: {exc}"]
    failures = []
    for engine in ENGINES:
        digests = cell_digests(engine)
        for name, digest in digests.items():
            if stored.get(name) != digest:
                failures.append(f"fixed cell {name} on the {engine} engine "
                                f"differs from its stored output")
        if set(stored) != set(digests):
            failures.append("the stored cells are not the cells run")
    return failures


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    digests = cell_digests("oracle")
    if cell_digests("fast") != digests:
        print("error: the engines disagree; nothing written", file=sys.stderr)
        return 1
    GOLDEN_FILE.write_text(json.dumps(
        {"seed": GOLDEN_SEED, "ops": GOLDEN_OPS, "cells": digests},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cells to {GOLDEN_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
