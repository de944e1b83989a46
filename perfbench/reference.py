"""Time the benchmark's speed reference work, once per line read from stdin.

``harness.ReferenceProcess`` starts this script.  For each line it reads it
runs the reference work once on each CPU the process may use, pinned to
that CPU, and writes the mean seconds a run took, as text.  It ends when
stdin closes.  It imports only the standard library and ``harness``, never
the program under test.
"""

import os
import statistics
import sys

from harness import timed_reference_work


def main() -> int:
    sample = timed_reference_work()
    sample()  # the first run is slower: it warms the interpreter up
    # On a virtual machine each CPU is a host thread that neighbours slow
    # down on their own, and a request may run on any of them: time all.
    pinnable = hasattr(os, "sched_setaffinity")  # Linux only
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else [None]
    for _ in sys.stdin:
        seconds = []
        for cpu in cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            seconds.append(sample())
        print(repr(statistics.fmean(seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
