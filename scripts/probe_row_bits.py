"""Probe how the BLAS rounds one row of a matrix product, the facts behind
codec.BLOCK_ROWS, WIDE_OUT and WIDE_ROWS.

Run it under each OpenBLAS kernel the bytes must hold on, one BLAS thread:

    for core in Haswell SkylakeX; do
        OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=$core python3 scripts/probe_row_bits.py
    done

Heights: for each (fan_in, fan_out) of float64, the heights from 1 to 130
at which a row of a[:h] @ w.T differs in bits from the same row of a
256-row product. The forward runs a wide product only at multiples of 4 of
at least 16 rows, so none of those may appear for 128 or more outputs; a
narrower product runs only as 16-row blocks, so any may appear for it.

Positions: one row repeated down a 64-row float32 and float64 product, and
the positions whose bits differ from position 0's. Where any do, a row's
bits depend on where it sits in the pass, which no padding of the pass can
fix (Haswell's sgemm rounds rows 6-11 of each 12-row tile apart from rows
0-5).
"""

import numpy as np

SHAPES = [(1024, 256), (256, 1024), (64, 256), (1024, 128), (128, 1024), (100, 128), (256, 64), (32, 64)]


def main() -> None:
    rng = np.random.default_rng(0)
    print("float64 heights 1-130 whose rows differ from a 256-row product:")
    for fan_in, fan_out in SHAPES:
        a = rng.uniform(-1.0, 1.0, size=(256, fan_in))
        w = rng.uniform(-1.0, 1.0, size=(fan_out, fan_in))
        ref = a @ w.T
        bad = [h for h in range(1, 131) if not np.array_equal(a[:h] @ w.T, ref[:h])]
        kept = [h for h in bad if h % 4 == 0 and h >= 16]
        print(f"  {fan_in:5d} -> {fan_out:5d}: {len(bad)} heights, up to 24: {[h for h in bad if h <= 24]};"
              f" multiples of 4 from 16: {kept}")
    print("positions of a 64-row product whose bits differ from position 0's (one row repeated):")
    for dtype in (np.float32, np.float64):
        for fan_in, fan_out in SHAPES[:2]:
            x = rng.uniform(-1.0, 1.0, size=fan_in).astype(dtype)
            w = rng.uniform(-1.0, 1.0, size=(fan_out, fan_in)).astype(dtype)
            p = np.tile(x, (64, 1)) @ w.T
            apart = [i for i in range(64) if not np.array_equal(p[i], p[0])]
            print(f"  {np.dtype(dtype).name:7s} {fan_in:5d} -> {fan_out:5d}: {apart}")


if __name__ == "__main__":
    main()
