"""Weighted isotonic regression (pool adjacent violators).

Solves min sum_i w_i (x_i - y_i)^2 subject to x being monotone along the
given index order. The solver is the linear-time stack variant of PAVA;
pooled block values are recomputed with compensated summation so that the
weighted total is preserved tightly even for inputs thousands of entries
long.

``isotonic_fit`` runs one stack over one (possibly long) input;
``project_rows_non_increasing`` advances the same stack over many short
rows at once, the shape of a batch of reviewer bundles.
"""

from __future__ import annotations

import math

import numpy as np

NON_INCREASING = "non-increasing"
NON_DECREASING = "non-decreasing"
_DIRECTIONS = (NON_INCREASING, NON_DECREASING)


def _pava_non_decreasing(y: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Stack PAVA; merges adjacent blocks while their means strictly violate.

    ``w is None`` means unit weights. Pooled block values are recomputed
    with compensated summation so sum(w*x) == sum(w*y) stays tight; a block
    of one keeps its input value.
    """
    n = len(y)
    yl = y.tolist()
    if w is None:
        wl, wyl = [1.0] * n, yl
    else:
        wl, wyl = w.tolist(), (w * y).tolist()
    starts = [0] * n
    wsum = [0.0] * n
    wysum = [0.0] * n
    m = 0
    for i in range(n):
        starts[m] = i
        wsum[m] = wl[i]
        wysum[m] = wyl[i]
        m += 1
        while m > 1 and wysum[m - 2] * wsum[m - 1] > wysum[m - 1] * wsum[m - 2]:
            wsum[m - 2] += wsum[m - 1]
            wysum[m - 2] += wysum[m - 1]
            m -= 1
    out = yl[:]
    for b in range(m):
        lo = starts[b]
        hi = starts[b + 1] if b + 1 < m else n
        if hi - lo > 1:
            out[lo:hi] = [math.fsum(wyl[lo:hi]) / math.fsum(wl[lo:hi])] * (hi - lo)
    return np.array(out)


def project_rows_non_increasing(y: np.ndarray) -> np.ndarray:
    """Unit-weight projection of every row of ``y`` onto non-increasing vectors.

    A row-batched copy of ``_pava_non_decreasing(-row, None)``: the same
    stack, merge test and running sums, advanced one column at a time for
    all rows, so each row matches the scalar kernel bit for bit. A pooled
    block of two is its running sum halved (what fsum of two values gives);
    longer blocks keep ``math.fsum``.
    """
    z = -np.asarray(y, dtype=float)
    m, s = z.shape
    starts = np.zeros((m, s), dtype=np.int64)
    wsum = np.zeros((m, s))
    wysum = np.zeros((m, s))
    depth = np.zeros(m, dtype=np.int64)
    rows = np.arange(m)
    for i in range(s):
        starts[rows, depth] = i
        wsum[rows, depth] = 1.0
        wysum[rows, depth] = z[:, i]
        depth += 1
        while True:
            r = np.flatnonzero(depth > 1)
            t = depth[r] - 1
            merge = wysum[r, t - 1] * wsum[r, t] > wysum[r, t] * wsum[r, t - 1]
            if not merge.any():
                break
            r, t = r[merge], t[merge]
            wsum[r, t - 1] += wsum[r, t]
            wysum[r, t - 1] += wysum[r, t]
            depth[r] -= 1
    # unit weights: a live block's wsum is its length, exactly
    live = np.arange(s) < depth[:, None]
    opens = np.zeros((m, s), dtype=bool)
    opens[np.nonzero(live)[0], starts[live]] = True
    block = np.cumsum(opens, axis=1) - 1
    out = np.take_along_axis(wysum, block, axis=1) / np.take_along_axis(wsum, block, axis=1)
    r, b = np.nonzero(live & (wsum >= 3.0))
    lengths = wsum[r, b].astype(np.int64)
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        sel = lengths == length
        block_rows = r[sel][:, None]
        cols = starts[r[sel], b[sel]][:, None] + np.arange(length)
        sums = np.fromiter(map(math.fsum, z[block_rows, cols].tolist()), dtype=float)
        out[block_rows, cols] = (sums / length)[:, None]
    return -out


def isotonic_fit(
    values: np.ndarray, weights: np.ndarray | None = None, direction: str = NON_INCREASING
) -> np.ndarray:
    """Unique least-squares monotone fit of ``values``.

    ``weights`` defaults to all ones. ``direction`` is the monotonicity
    required of the output along the index order of ``values``. Returns a
    piecewise-constant vector whose blocks are weighted means of the pooled
    input entries. An empty input yields an empty output.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"values must be 1-d, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("values must be finite")
    if weights is None:
        w = None
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape:
            raise ValueError(f"weights shape {w.shape} != values shape {y.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    if y.size == 0:
        return y.copy()
    if direction == NON_DECREASING:
        return _pava_non_decreasing(y, w)
    return -_pava_non_decreasing(-y, w)


def isotonic_project_indexed(scores: np.ndarray, order: np.ndarray, blend: float) -> np.ndarray:
    """Project scores onto "non-increasing along order", then blend.

    ``order`` lists indices from best to worst; the projection forces
    scores[order[0]] >= scores[order[1]] >= ... . The result is
    blend * fitted + (1 - blend) * scores.
    """
    scores = np.asarray(scores, dtype=float)
    order = np.asarray(order)
    if not 0.0 <= blend <= 1.0:
        raise ValueError(f"blend must lie in [0, 1], got {blend}")
    if sorted(order.tolist()) != list(range(len(scores))):
        raise ValueError("order is not a permutation of the score indices")
    fitted = np.empty_like(scores)
    fitted[order] = isotonic_fit(scores[order])
    return blend * fitted + (1.0 - blend) * scores
