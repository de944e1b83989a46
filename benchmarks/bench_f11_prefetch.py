"""[F11] Interaction with a stride prefetcher.

MAPG's savings come from off-chip stalls — exactly what a prefetcher
removes.  This experiment runs each workload with and without an L2 stride
prefetcher (degree 4) and measures how much of MAPG's saving survives.
Shape claims: on streaming workloads the prefetcher removes a large share
of the stalls and with them most of MAPG's absolute saving; on
pointer-chasing workloads the prefetcher is ineffective and MAPG's saving
is untouched.  The two techniques are complementary, not redundant — the
baseline also speeds up, so the *relative* saving falls less than the
stall count.
"""

from _common import SWEEP_OPS, emit, run_once

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_fraction_pct
from repro.config import PrefetcherConfig, SystemConfig
from repro.fastsim import FastSimulator
from repro.sim.runner import run_workload, with_policy

WORKLOADS = ("mcf_like", "libquantum_like", "lbm_like", "gcc_like")


def prefetch_config() -> SystemConfig:
    """The default system with the degree-4 stride prefetcher on."""
    return SystemConfig().replace(
        prefetcher=PrefetcherConfig(enabled=True, degree=4))


def build_report() -> ExperimentReport:
    base = SystemConfig()
    with_pf = prefetch_config()
    report = ExperimentReport(
        "F11", "MAPG with and without an L2 stride prefetcher (degree 4)",
        headers=["workload", "prefetcher", "offchip stalls", "speedup",
                 "MAPG saving", "MAPG penalty", "useful pf"])
    for workload in WORKLOADS:
        plain_never = run_workload(with_policy(base, "never"),
                                   workload, SWEEP_OPS, seed=11)
        for label, config in (("off", base), ("on", with_pf)):
            never = run_workload(with_policy(config, "never"),
                                 workload, SWEEP_OPS, seed=11)
            mapg = run_workload(with_policy(config, "mapg"),
                                workload, SWEEP_OPS, seed=11)
            delta = mapg.compare(never)
            report.add_row(
                workload, label,
                int(never.offchip_stalls),
                f"{plain_never.total_cycles / never.total_cycles:.2f}x",
                format_fraction_pct(delta.energy_saving),
                format_fraction_pct(delta.performance_penalty, precision=2),
                int(never.memory_counters.get("useful_prefetches", 0)))
    report.add_note("speedup is the never-gate runtime vs the no-prefetcher build")
    report.add_note("MAPG saving/penalty measured against the same-config never run")
    return report


def test_f11_prefetch(benchmark):
    report = run_once(benchmark, build_report)
    emit(report)
    rows = {(row[0], row[1]): row for row in report.rows}

    def pct(cell):
        return float(cell.split()[0])

    def speedup(cell):
        return float(cell.rstrip("x"))

    # Prefetching helps streaming >> pointer chasing.
    assert speedup(rows[("libquantum_like", "on")][3]) > \
        speedup(rows[("mcf_like", "on")][3])
    # MAPG still saves energy with the prefetcher on, on every workload.
    for workload in WORKLOADS:
        assert pct(rows[(workload, "on")][4]) > 0.0
    # Streaming: prefetcher removes a visible share of off-chip stalls
    # (reuse traffic interleaves with the streams, so the per-PC stride
    # detector catches most but not all of the stream accesses).
    assert rows[("libquantum_like", "on")][2] < \
        0.9 * rows[("libquantum_like", "off")][2]
    # The prefetcher cells run on the fast kernel, not its oracle fallback.
    for policy in ("never", "mapg"):
        fast = FastSimulator(with_policy(prefetch_config(), policy))
        assert fast.used_fast_path, fast.fallback_reasons


if __name__ == "__main__":
    print(build_report().render())
