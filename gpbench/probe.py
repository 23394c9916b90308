"""Speed probe of the host, shared by the benchmark and its dry-run processes.

On a shared host the speed of one core drifts by up to 2x, over seconds
to minutes, and CPU time drifts with wall time.  The probe is a fixed
kernel owned by the benchmark: small FFTs, and Python dict and string
work like the symbolic layer and the CSV writer.  Its time, taken next
to a measurement, tells how fast the host ran at that moment.
CAL_REF_S is about the probe's time on an unloaded 2-core Xeon host; a
time t measured while the probe took p seconds is reported as
t * CAL_REF_S / p, seconds at that reference speed.
"""

import time

import numpy as np

CAL_REF_S = 0.0075
_FIELD = np.arange(256) * 0.01 + 0j


def calibrate() -> float:
    """Wall time of the fixed probe kernel."""
    start = time.perf_counter()
    y = _FIELD
    for _ in range(150):
        y = np.fft.ifft(np.fft.fft(y) * 1.0) + 0.0
    table = {}
    for i in range(4000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
        "%.17g" % (i * 0.1)
    return time.perf_counter() - start
