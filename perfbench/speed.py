"""CPU speed probe that runs next to the benchmark's samples.

    python3 perfbench/speed.py

Every PERIOD_S seconds it times a fixed pure-Python loop of Fraction and dict
arithmetic, the kind of work the CLI does, in CPU time of its own thread, so
time spent waiting for a CPU does not count.  When its stdin closes it prints
one JSON list of [end, cpu_s] pairs, end on the time.perf_counter clock, and
exits.  run.py starts it, lets it run during a whole run, and scales each
sample by the probe times taken while that sample ran.
"""

from __future__ import annotations

import json
import select
import sys
import time
from fractions import Fraction

PERIOD_S = 0.1


def probe_cpu_s() -> float:
    start = time.thread_time()
    total = Fraction(0)
    seen = {}
    for i in range(1, 2500):
        total += Fraction(i % 89 + 1, i % 97 + 1)
        seen[i % 50, i % 7] = total
    return time.thread_time() - start


def main() -> None:
    times = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        cpu_s = probe_cpu_s()
        times.append((time.perf_counter(), cpu_s))
    json.dump(times, sys.stdout)


if __name__ == "__main__":
    main()
