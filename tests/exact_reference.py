"""Exact-null oracles: the references that ``exact.exact_pvalue`` is tested
against. Each computes P(D_q >= d) by its own route:

- ``band_pvalue``: the band recurrence that counts the lattice paths inside
  |u - v| < d;
- ``term_sum_pvalue``: the Gnedenko-Korolyuk sum with each term its own
  ``math.comb``;
- ``brute_force_pvalue``: enumeration of all C(2q, q) paths, q <= 12.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

BRUTE_FORCE_MAX_Q = 12


def count_band_paths(q, d):
    """A_{q,q}, the number of monotone lattice paths from (0,0) to (q,q)
    inside the band |u - v| < d, for q >= 1 and d >= 1, by the band
    recurrence over two rolling rows.

    In-band axis cells are 1 and interior in-band cells follow
    A[u][v] = A[u-1][v] + A[u][v-1]. O(q d) big-int adds, memory O(q).
    """
    if q < 1 or d < 1:
        raise ValueError(f"need q >= 1 and d >= 1, got q={q}, d={d}")
    prev = [0] * (q + 1)
    for v in range(1, q + 1):
        prev[v] = 1 if v < d else 0
    for u in range(1, q + 1):
        cur = [0] * (q + 1)
        cur[0] = 1 if u < d else 0
        lo = max(1, u - d + 1)
        hi = min(q, u + d - 1)
        for v in range(lo, hi + 1):
            cur[v] = prev[v] + cur[v - 1]
        prev = cur
    return prev[q]


def band_pvalue(q, d):
    """P(D_q >= d) = 1 - A_{q,q} / C(2q, q), for d >= 1."""
    return 1 - Fraction(count_band_paths(q, d), math.comb(2 * q, q))


def term_sum_pvalue(q, d):
    """2 sum_{k>=1} (-1)^(k+1) C(2q, q - kd) / C(2q, q), for d >= 1, with
    each term its own math.comb."""
    terms = sum((-1) ** (k + 1) * math.comb(2 * q, q - k * d)
                for k in range(1, q // d + 1))
    return Fraction(2 * terms, math.comb(2 * q, q))


@lru_cache(maxsize=None)
def _brute_force_max_counts(q):
    """counts[m] = number of monotone (0,0)->(q,q) paths whose max |u - v|
    equals m, by full enumeration of all C(2q, q) paths: each 2q-bit mask
    with q set bits is one path, bit s set when step s goes right."""
    steps = 2 * q
    shifts = np.arange(steps, dtype=np.uint32)
    counts = np.zeros(q + 1, dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, 1 << steps, chunk):
        masks = np.arange(start, min(start + chunk, 1 << steps), dtype=np.uint32)
        masks = masks[np.bitwise_count(masks) == q]
        right = ((masks[:, None] >> shifts) & 1).astype(np.int8)
        walk = np.cumsum(2 * right - 1, axis=1, dtype=np.int8)
        counts += np.bincount(np.abs(walk).max(axis=1), minlength=q + 1)
    return tuple(int(c) for c in counts)


def brute_force_pvalue(q, d):
    """The fraction of all interleavings of q right-steps and q up-steps
    whose max prefix gap is >= d, for 1 <= q <= BRUTE_FORCE_MAX_Q and
    d >= 0."""
    if not 1 <= q <= BRUTE_FORCE_MAX_Q or d < 0:
        raise ValueError(f"need 1 <= q <= {BRUTE_FORCE_MAX_Q} and d >= 0, "
                         f"got q={q}, d={d}")
    return Fraction(sum(_brute_force_max_counts(q)[d:]), math.comb(2 * q, q))
