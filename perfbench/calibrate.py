"""Time a fixed loop ten times and print the times, in seconds, as a JSON list.

    python3 perfbench/calibrate.py

The loop is shaped like the engine's per-unit step (a small dot product and
an update, about 20 ms).  The machine's speed drifts by tens of percent over
minutes, so ``run.py`` runs this after every timed study, in a process of its
own that does not import carlab, and scales the run's rate by the median
loop time of the run.
"""

import json
import time

import numpy as np


def loop() -> float:
    lam, row = np.zeros(4), np.arange(4.0)
    t0 = time.perf_counter()
    for _ in range(10000):
        if float(lam @ row) < 0.0:
            lam += row
        else:
            lam -= row
    return time.perf_counter() - t0


if __name__ == "__main__":
    loop()  # warm-up
    print(json.dumps([loop() for _ in range(10)]))
