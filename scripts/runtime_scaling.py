"""Wall-time scaling of the per-frame pipeline across frame sizes.

Segments geometrically scaled phantoms at several frame sizes and prints
the per-size wall time (minimum over repeats) together with the growth
factor relative to the previous size.  Near-linear behaviour shows up as
growth factors staying close to the pixel-count ratio.

Usage: python scripts/runtime_scaling.py [--sizes 192,384,768] [--repeats 7]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import acceptance_phantom_spec, scaled_phantom_spec
from ivuseg.cli import RunConfig, segment_frame
from ivuseg.phantom import generate_phantom


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="192,384,768")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    cfg = RunConfig()
    previous = None
    for size in sizes:
        frame, _ = generate_phantom(scaled_phantom_spec(acceptance_phantom_spec(0), size))
        segment_frame(frame, cfg)  # warm-up
        best = min(
            _timed(frame, cfg) for _ in range(args.repeats)
        )
        line = f"{size:>5}x{size:<5} {best * 1000:8.1f} ms"
        if previous is not None:
            line += f"   x{best / previous:.2f} vs previous size"
        print(line)
        previous = best


def _timed(frame, cfg) -> float:
    t0 = time.perf_counter()
    segment_frame(frame, cfg)
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
