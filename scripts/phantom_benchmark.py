"""Segmentation quality over the acceptance phantom populations.

Runs the full pipeline on 50 clean and 50 shadow phantoms (the shadow
attenuation, 0.6, is fixed by acceptance_phantom_spec) and prints the
per-population mean/std of JM, HD, and PAD for both structures, in the
layout of a per-artifact performance table.

Usage: python scripts/phantom_benchmark.py [--n 50]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import acceptance_phantom_spec
from ivuseg.cli import RunConfig, segment_frame
from ivuseg.geometry import ellipse_mask, rasterize_ellipse
from ivuseg.metrics import hausdorff, jaccard, pad
from ivuseg.phantom import generate_phantom


def run_population(n: int, shadow: bool):
    cfg = RunConfig()
    rows = []
    for seed in range(n):
        spec = acceptance_phantom_spec(seed, shadow=shadow)
        frame, truth = generate_phantom(spec)
        t0 = time.perf_counter()
        result = segment_frame(frame, cfg)
        elapsed = time.perf_counter() - t0
        shape = frame.pixels.shape
        row = {"time": elapsed}
        for name, ellipse, gold, gold_contour in (
            ("lumen", result.lumen, truth.lumen, truth.lumen_contour),
            ("media", result.media, truth.media, truth.media_contour),
        ):
            auto_mask = ellipse_mask(ellipse, shape)
            gold_mask = ellipse_mask(gold, shape)
            row[f"jm_{name}"] = jaccard(auto_mask, gold_mask)
            row[f"hd_{name}"] = hausdorff(rasterize_ellipse(ellipse, 720), gold_contour)
            row[f"pad_{name}"] = pad(auto_mask.sum(), gold_mask.sum())
        rows.append(row)
    return rows


def summarise(label: str, rows) -> None:
    print(f"\n{label} ({len(rows)} frames, "
          f"{np.mean([r['time'] for r in rows]) * 1000:.0f} ms/frame)")
    print(f"  {'':8} {'HD px':>14} {'JM':>14} {'PAD':>14}")
    for name in ("lumen", "media"):
        hd = [r[f"hd_{name}"] for r in rows]
        jm = [r[f"jm_{name}"] for r in rows]
        pd = [r[f"pad_{name}"] for r in rows]
        print(
            f"  {name:8}"
            f"  {np.mean(hd):6.2f} ({np.std(hd):4.2f})"
            f"  {np.mean(jm):6.3f} ({np.std(jm):4.2f})"
            f"  {np.mean(pd):6.3f} ({np.std(pd):4.2f})"
        )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=50)
    args = ap.parse_args()
    summarise("no artifact", run_population(args.n, shadow=False))
    summarise("shadow", run_population(args.n, shadow=True))


if __name__ == "__main__":
    main()
