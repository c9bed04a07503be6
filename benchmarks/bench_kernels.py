#!/usr/bin/env python3
"""Benchmark the mod-p kernels: numba lane vs pure-numpy lane.

Row reduction carries the flag-selected numba/@njit vs numpy pair
(HOPFKIT_NO_NUMBA=1 forces the numpy lane package-wide); the matrix
product is also measured against the njit reference loop to document
why it stays on numpy in both lanes.  One end-to-end pipeline stage
over GF(3) closes the report.

Usage: python benchmarks/bench_kernels.py [--sizes 100,200,400] [--repeat 3]
"""

import argparse
import random
import time

import numpy as np

from hopfkit import _kernels as kn
from hopfkit.fields import PrimeField
from hopfkit.monoid import monogenic, monoid_bialgebra


def random_matrix(rng, m, n, p):
    return np.array(
        [[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64
    )


def best_of(repeat, fn, *args):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="100,200,400")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("-p", type=int, default=3, help="prime modulus")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    p = args.p
    rng = random.Random(1234)

    print(f"backend available: {kn.BACKEND} (set HOPFKIT_NO_NUMBA=1 to force numpy)")
    if kn.HAS_NUMBA:
        warm = random_matrix(rng, 8, 8, p)
        kn.rref_mod(warm, p)  # compile outside the timed region
        kn._nb_matmul_mod(warm, warm, p)

    header = f"{'kernel':<22}{'size':>6}{'numpy (s)':>12}{'numba (s)':>12}{'ratio':>8}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        a = random_matrix(rng, n, n, p)
        b = random_matrix(rng, n, n, p)
        t_np = best_of(args.repeat, kn.np_rref_mod, a, p)
        if kn.HAS_NUMBA:
            t_nb = best_of(args.repeat, kn.rref_mod, a, p)
            r1, piv1 = kn.rref_mod(a, p)
            r2, piv2 = kn.np_rref_mod(a, p)
            assert np.array_equal(r1, r2) and np.array_equal(piv1, piv2)
            print(f"{'rref_mod':<22}{n:>6}{t_np:>12.4f}{t_nb:>12.4f}{t_np / t_nb:>8.2f}")
        else:
            print(f"{'rref_mod':<22}{n:>6}{t_np:>12.4f}{'-':>12}{'-':>8}")
        if kn.HAS_NUMBA:
            # the rejected alternative: njit loop vs the shipped numpy product
            t_np = best_of(args.repeat, kn.matmul_mod, a, b, p)
            t_nb = best_of(args.repeat, kn._nb_matmul_mod, a, b, p)
            assert np.array_equal(kn._nb_matmul_mod(a, b, p), kn.matmul_mod(a, b, p))
            print(
                f"{'matmul_mod (njit ref)':<22}{n:>6}{t_np:>12.4f}{t_nb:>12.4f}"
                f"{t_np / t_nb:>8.2f}"
            )

    if kn.HAS_NUMBA:
        # large prime: the direct product would overflow, numpy splits b into
        # 16-bit limbs
        big_p = (1 << 31) - 1
        n = sizes[-1]
        a = random_matrix(rng, n, n, big_p)
        b = random_matrix(rng, n, n, big_p)
        t_np = best_of(args.repeat, kn.matmul_mod, a, b, big_p)
        t_nb = best_of(args.repeat, kn._nb_matmul_mod, a, b, big_p)
        assert np.array_equal(kn._nb_matmul_mod(a, b, big_p), kn.matmul_mod(a, b, big_p))
        print(
            f"{'matmul p~2^31 (ref)':<22}{n:>6}{t_np:>12.4f}{t_nb:>12.4f}"
            f"{t_np / t_nb:>8.2f}"
        )

    from hopfkit.envelope import hopf_envelope

    b = monoid_bialgebra(monogenic(2, 3), PrimeField(3))
    t0 = time.perf_counter()
    env = hopf_envelope(b)
    print(
        f"\nenvelope of the 5-dim periodic monoid bialgebra over F3 "
        f"({kn.BACKEND} lane): {time.perf_counter() - t0:.4f} s, H dim {env.hopf.dim}"
    )


if __name__ == "__main__":
    main()
