"""
The reference kernel: a fixed pure-Python job, about 40 ms on a 2-vCPU
host, that never imports fivevertex.  Half of it is dict and tuple churn,
half small-integer arithmetic: on a shared host the first slows down more
than the library does when the host is busy and the second less, and the
mix follows the library's own slow-downs most closely.

Run as a long-lived process that times one kernel per input line and
writes the seconds taken as one output line.  The benchmark runs it
between queries, never at the same time as one, and divides every timing
by the run's median kernel time, which cancels the drift in host speed
that a shared machine shows over tens of seconds.
"""

import sys
import time

CHURN_ROUNDS = 25000
ARITH_ROUNDS = 200000


def kernel():
    table = {}
    acc = 0
    for i in range(CHURN_ROUNDS):
        key = (i & 511, (i >> 3) % 7, i % 3)
        prev = table.get(key, (0, ()))
        table[key] = (prev[0] + 1, key[:2] + (i,))
        if i % 5 == 0:
            acc += len(sorted(prev[1]))
    for i in range(ARITH_ROUNDS):
        acc = (acc * 31 + i) & 0xFFFF
    return acc + len(table)


def main():
    for _ in range(3):
        kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main()
