"""Host speed probe behind the benchmark's calibrated seconds.

    python3 bench/calibrator.py

Times rounds of a fixed loop that never calls the program, resting between
rounds so that it keeps about DUTY of a core busy, until its standard input
reaches end of file.  It then prints the rounds on standard output as JSON,
``[[start, seconds], ...]``.  ``time.perf_counter`` reads the system-wide
monotonic clock, so the process that started the probe can match the rounds
to its own ops.

The loop is shaped like the program's inner work: small numpy products and
float formatting and parsing.  On a shared 2-core host the two cores were
seen to change speed together (correlation about 0.9 over 1 s windows),
so a probe on the idle core tracks the speed the benchmarked process gets.
"""

import json
import select
import sys
import time

import numpy as np

ITERATIONS = 1500
DUTY = 0.1


def round_seconds():
    """Wall seconds of one round of the fixed loop."""
    a, x = 0.5 * np.eye(4), np.ones(4)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(ITERATIONS):
        acc += float((a @ x)[0])
        acc -= 0.5 * float(f"{acc:.11e}")
    return time.perf_counter() - t0


def main():
    rounds = []
    while True:
        start = time.perf_counter()
        seconds = round_seconds()
        rounds.append((start, seconds))
        rest = seconds * (1.0 - DUTY) / DUTY
        if select.select([sys.stdin], [], [], rest)[0]:
            break
    json.dump(rounds, sys.stdout)


if __name__ == "__main__":
    main()
