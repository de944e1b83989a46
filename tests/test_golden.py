"""Golden-number regression guard.

The simulator is fully deterministic, so the canonical mini-evaluation
(3 workloads x 4 policies, 4000 ops, seed 42) must reproduce the numbers
in ``tests/data/golden.json`` exactly (cycles/counts) or to float
round-off (energy).  A failure here means the *model* changed — if the
change is intentional, regenerate the golden file:

    python - <<'EOF'
    import json
    from repro import SystemConfig, run_policy_comparison
    matrix = run_policy_comparison(
        SystemConfig(), ["mcf_like", "gcc_like", "povray_like"],
        ["never", "naive", "mapg", "oracle"], 4000, seed=42)
    golden = {wl: {pol: {
        "total_cycles": r.total_cycles, "penalty_cycles": r.penalty_cycles,
        "instructions": r.instructions, "energy_j": r.energy_j,
        "offchip_stalls": r.offchip_stalls, "gated_stalls": r.gated_stalls,
        "event_count": r.event_count} for pol, r in per.items()}
        for wl, per in matrix.items()}
    json.dump(golden, open("tests/data/golden.json", "w"), indent=2, sort_keys=True)
    EOF

and record the expected deltas in your commit message.
"""

import json
from pathlib import Path

import pytest

from repro import SystemConfig, run_policy_comparison

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"
WORKLOADS = ["mcf_like", "gcc_like", "povray_like"]
POLICIES = ["never", "naive", "mapg", "oracle"]
INTEGER_FIELDS = ("total_cycles", "penalty_cycles", "instructions",
                  "offchip_stalls", "gated_stalls", "event_count")


def golden_matrix(engine):
    return run_policy_comparison(SystemConfig(), WORKLOADS, POLICIES,
                                 4000, seed=42, engine=engine)


@pytest.fixture(scope="module")
def matrix():
    # The oracle is the reference every fast result is checked against,
    # so it stays pinned by name now that "fast" is the default engine.
    return golden_matrix("oracle")


@pytest.fixture(scope="module")
def fast_matrix():
    return golden_matrix("fast")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("policy", POLICIES)
def test_golden_numbers(matrix, golden, workload, policy):
    assert_golden(matrix[workload][policy], golden[workload][policy],
                  workload, policy)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("policy", POLICIES)
def test_golden_numbers_fast(fast_matrix, golden, workload, policy):
    assert_golden(fast_matrix[workload][policy], golden[workload][policy],
                  workload, policy)


def assert_golden(result, expected, workload, policy):
    for field in INTEGER_FIELDS:
        assert getattr(result, field) == expected[field], \
            f"{workload}/{policy}.{field} drifted"
    assert result.energy_j == pytest.approx(expected["energy_j"], rel=1e-9), \
        f"{workload}/{policy}.energy_j drifted"
