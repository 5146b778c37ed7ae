"""Machine-speed calibration, so that timings compare across runs.

On a shared 2-vCPU virtual machine one fixed piece of work runs up to 30%
faster or slower from one half-minute to the next, and CPU time moves with
wall time: the processor slows down, nobody waits.  A stable argsort of a
fixed 384x384 uint8 image, the first step of the component-tree sweep,
slows down with the pipeline (a byte-walking Python loop over-reacts).

The run times the kernel between passes and scales each pass's times by
NOMINAL_S over the kernel time around that pass, which reports them at the
speed where the kernel takes NOMINAL_S.  Over five seeds of 30 s runs the
spread (IQR over median) of frames_per_s went from 17% raw to 8% scaled on
segment768 and from 7% to 6% on ringdown384_jobs2, and that of
frame_ms_p50 from 21% to 7% and from 10% to 3%.  The raw times are
recorded too.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.00095  # the kernel's typical time between passes on the 2-vCPU Xeon used
REPEATS = 15


class Kernel:
    def __init__(self):
        import numpy as np

        self._np = np
        self._img = np.random.default_rng(0).integers(0, 256, 384 * 384).astype(np.uint8)

    def sample(self) -> float:
        """Median kernel time over back-to-back repeats, in seconds."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._np.argsort(self._img, kind="stable")
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
