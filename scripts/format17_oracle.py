"""Oracle for the exact 17-digit kernel of ``nhskin.io``.

Every CSV writer of ``nhskin.io`` formats its floats with this kernel.
Formats N values per class with it and with CPython's ``"%.17g" %``,
compares the bytes, and prints per class the number of values, of
mismatches and of values the kernel handed to ``%``, and the first
mismatches.  The classes are random bit patterns (every float64, NaNs and
subnormals included), values exponent-uniform over 1e+-300 of either sign,
integers below 1e17, exact ties of the 17-digit rounding (odd m /
2^(17-k)) at every k in [-6, 15], where 10^(16-k) is a double and the kernel
proves them, random bit patterns with about half of them replaced by +-0 at
random positions (zeros skip the kernel, so this checks the rows around
them), fixed notation with the point moved into the digits (1 <= k <= 16)
and random trailing zeros (c-digit m * 10^(k+1-c) of either sign), and,
whatever N, every power of ten from 1e-323 to 1e308 with its neighbours one
ulp away, every tie at k = -8 and -7, where 10^(16-k) is not a double and
the kernel hands them to ``%``, and the special values +-0, +-inf, NaN and
the smallest subnormal and normal of either sign.  The tests run it at
N = 10^5 (about 1 s); at the default N = 10^7 it takes a few minutes,
nearly all of it in ``%``.  It exits 1 if any byte differs.

    PYTHONPATH=src python scripts/format17_oracle.py [--n N] [--seed S]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from nhskin.io import FLOAT_FMT, _digits17, _format17

#: values formatted per call, which bounds the memory
CHUNK = 1_000_000


def _bits(rng, n):
    return rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float)


def _spread(rng, n):
    return 10.0 ** rng.uniform(-300, 300, n) * rng.choice([-1.0, 1.0], n)


def _integers(rng, n):
    return rng.integers(0, 10 ** 17, n).astype(float)


def _ties(rng, n):
    k = rng.integers(-6, 16, n)
    low = np.floor(10.0 ** k * 2.0 ** (17 - k)).astype(np.int64)
    high = np.minimum(10 * low, 2 ** 53)    # inside the decade, and m a double
    m = (low + 1 + ((high - low - 2) * rng.random(n)).astype(np.int64)) | 1
    return m / 2.0 ** (17 - k)


def _inexact_ties():
    k, m = np.meshgrid([-8, -7], np.arange(1, 17, 2))
    v = m / 2.0 ** (17 - k)
    return v[np.floor(np.log10(v)) == k]


def _fixed(rng, n):
    k, c = rng.integers(1, 17, n), rng.integers(1, 18, n)
    m = rng.integers(10 ** (c - 1), 10 ** c)    # c digits, then 17 - c zeros
    e = k + 1 - c
    v = np.where(e >= 0, m * 10.0 ** np.maximum(e, 0), m / 10.0 ** np.maximum(-e, 0))
    return v * rng.choice([-1.0, 1.0], n)


def _with_zeros(rng, n):
    v = _bits(rng, n)
    at = rng.random(n) < 0.5
    v[at] = np.copysign(0.0, v[at])
    return v


CLASSES = {"bit patterns": _bits, "exp-uniform 1e+-300": _spread,
           "integers < 1e17": _integers, "exact-power ties": _ties,
           "bit patterns with +-0": _with_zeros, "fixed 1<=k<=16, zeros": _fixed}


def compare(values):
    """(mismatches as (value, kernel, %) triples, number handed to %: the
    unproven values other than zeros, which the kernel writes itself)."""
    got = _format17(values, b"\n").tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    want = [FLOAT_FMT % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    return bad, int(np.sum(~_digits17(values)[2] & (values != 0)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=10 ** 7, help="values per class")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    p10 = 10.0 ** np.arange(-323, 309)
    work = [(name, [make(rng, min(CHUNK, args.n - i)) for i in range(0, args.n, CHUNK)])
            for name, make in CLASSES.items()]
    work.append(("powers of ten +-1 ulp", [np.concatenate(
        [p10, np.nextafter(p10, 0.0), np.nextafter(p10, np.inf)])]))
    work.append(("inexact-power ties", [np.concatenate([_inexact_ties(), -_inexact_ties()])]))
    special = np.array([0.0, np.inf, np.nan, 5e-324, np.finfo(float).tiny])
    work.append(("+-0, +-inf, nan, minima", [np.concatenate([special, -special])]))
    total = 0
    for name, chunks in work:
        t0 = time.perf_counter()
        count, bad, handed = 0, [], 0
        for chunk in chunks:
            b, h = compare(chunk)
            count, handed = count + len(chunk), handed + h
            bad += b
        total += len(bad)
        print(f"{name:<24} {count:>10} values  {len(bad)} mismatches  "
              f"{handed} to %  ({time.perf_counter() - t0:.1f} s)")
        for v, g, w in bad[:5]:
            print(f"    {v!r}: kernel {g!r}, % {w!r}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
