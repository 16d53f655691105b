"""Weighted isotonic regression (pool adjacent violators).

Solves min sum_i w_i (x_i - y_i)^2 subject to x being monotone along the
given index order, by the linear-time stack variant of PAVA; pooled block
values are recomputed with compensated summation, so the weighted total
holds tightly even for inputs thousands of entries long.

The scalar loop keeps the stack's top block in locals and the blocks below
it in lists. ``isotonic_fit`` runs it over one input; one call also fits
many disjoint segments of a flat input, the author projection's owners.
A descent is an entry whose merge test against the next holds. Each
segment's walk ends at its first push past that segment's own last
descent, since nothing after it would merge again, and a segment without
a descent is not walked at all: it is already monotone.
``project_rows_non_increasing`` advances the same stack over one band of
short rows at once (reviewer bundles, longest first), column-major at flat
index ``depth * rows + row``, each column only on the rows that reach it;
its pooled blocks of three or more are summed by TwoSum cascades where
certified to equal ``math.fsum``, and by fsum otherwise.
"""

from __future__ import annotations

import math

import numpy as np

NON_INCREASING = "non-increasing"
NON_DECREASING = "non-decreasing"
_DIRECTIONS = (NON_INCREASING, NON_DECREASING)


def _pava_non_decreasing(y: np.ndarray, w: np.ndarray | None, segments) -> np.ndarray:
    """Stack PAVA; merges adjacent blocks while their means strictly violate.

    Each row ``(lo, hi)`` of ``segments``, a ``(k, 2)`` array-like, is a
    slice ``[lo, hi)`` fitted on its own, with a fresh stack; entries
    outside every segment keep their input value. ``w is None`` means unit
    weights. The top block's start, weight and weighted sum are locals, the
    blocks below it three lists. Pooled block values are recomputed with
    compensated summation so sum(w*x) == sum(w*y) stays tight (a
    unit-weight block's weight is its length) and written once per block; a
    block of one keeps its input. With an entry alone on top, the next one's
    merge test is the descent test at it, so a segment's walk ends at its
    first push past its last descent ``j`` (``lo <= j < hi - 1``), where
    every later entry would be pushed alone; a segment without one is skipped.
    """
    yl = y.tolist()
    wl, wyl = ([1.0] * len(yl), yl) if w is None else (w.tolist(), (wy := w * y).tolist())
    with np.errstate(over="ignore"):  # the merge test of each entry, alone on top, against the next
        descents = np.flatnonzero(y[:-1] > y[1:] if w is None else wy[:-1] * w[1:] > wy[1:] * w[:-1])
    bounds = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    # a segment's descents are descents[before:upto], those at lo <= j < hi - 1
    before, upto = np.searchsorted(descents, bounds[:, 0]), np.searchsorted(descents, bounds[:, 1] - 1)
    walked = np.flatnonzero(upto > before)
    los, lengths, values = [], [], []
    for seg_lo, seg_hi, last in zip(*bounds[walked].T.tolist(), descents[upto[walked] - 1].tolist()):
        ss, ws, wys = [], [], []
        ts, tw, twy = seg_lo, wl[seg_lo], wyl[seg_lo]
        for i in range(seg_lo + 1, seg_hi):
            xw, xwy = wl[i], wyl[i]
            if twy * xw > xwy * tw:
                tw, twy = tw + xw, twy + xwy
                while ws and wys[-1] * tw > twy * ws[-1]:
                    tw, twy, ts = tw + ws.pop(), twy + wys.pop(), ss.pop()
            elif i > last:
                seg_hi = i
                break
            else:
                ss.append(ts)
                ws.append(tw)
                wys.append(twy)
                ts, tw, twy = i, xw, xwy
        ss += (ts, seg_hi)
        lo = seg_lo
        for hi in ss:
            if hi - lo > 1:
                los.append(lo)
                lengths.append(hi - lo)
                values.append(math.fsum(wyl[lo:hi]) / (hi - lo if w is None else math.fsum(wl[lo:hi])))
            lo = hi
    out = y.copy()
    if los:
        k = np.array(lengths)
        out[np.arange(k.sum()) + np.repeat(np.array(los) - np.cumsum(k) + k, k)] = np.repeat(values, k)
    return out


_FSUM_SAFE = 2.0**1020
"""Summands whose magnitudes add up to less than this overflow no partial sum."""


def _running_two_sum(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The left-to-right sum of every column of ``x``, and each step's exact TwoSum error."""
    run = np.empty_like(x)
    run[0] = x[0]
    for j in range(1, len(x)):
        np.add(run[j - 1], x[j], out=run[j])
    prev, s, v = run[:-1], run[1:], x[1:]
    sv = s - prev
    return run[-1], (prev - (s - sv)) + (v - sv)


def _fsum_columns(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every column of ``x``, bit for bit.

    Column j holds its ``lengths[j]`` summands, then zeros. Its exact sum
    is the running sum ``total`` plus the step errors; where the running
    sum ``rest`` of those errors is itself exact (all its step errors are
    zero), ``total + rest`` rounds the exact sum to nearest, ties to even,
    as fsum does. Other columns, zero sums and any column that is not
    finite or could overflow go through ``math.fsum``, shortest first, so
    they return or raise what fsum does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total, errors = _running_two_sum(x)
        rest, rest_errors = _running_two_sum(errors)
        t = total + rest
        safe = np.abs(x).sum(axis=0) < _FSUM_SAFE
        certified = (rest_errors == 0.0).all(axis=0) & (t != 0.0) & safe
    fallback = np.flatnonzero(~certified)
    for j in fallback[np.argsort(lengths[fallback], kind="stable")].tolist():
        t[j] = math.fsum(x[: lengths[j], j].tolist())
    return t


def raise_on_overflow(y: np.ndarray, out: np.ndarray, pad: np.ndarray | bool = False) -> None:
    """Raise fsum's OverflowError if a row of ``y`` is finite and its projection ``out`` is not.

    Row r is column r, without the entries where ``pad`` holds. A pooled
    block of two is its running sum halved, which overflows to infinity
    where the scalar kernel's fsum raises. Rows holding a non-finite input
    are not checked.
    """
    if not np.isfinite(out).all():
        finite_in = (np.isfinite(y) | pad).all(axis=0)
        if (finite_in & ~(np.isfinite(out) | pad).all(axis=0)).any():
            raise OverflowError("intermediate overflow in fsum")


def project_rows_non_increasing(y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Unit-weight projection of every row of one band onto non-increasing vectors.

    A band is column-major: row r's entry i is ``y[i, r]``, and ``counts[i]``
    is the number of rows longer than i, the first ``counts[i]`` since rows
    come longest first; every row holds at least one entry. A row-batched
    copy of the scalar kernel on one segment: the same stack, merge test
    and running sums, advanced one column at a time for the rows that
    reach it, so each row matches the scalar kernel bit for bit. A new
    entry merges into its row's top block or is pushed above it, and only
    rows whose top block just grew test the block below again. A pooled
    block of two is its running sum halved (what fsum of two values gives);
    longer blocks take fsum's value from ``_fsum_columns``. Returns the
    ``(S, m)`` fits; past a row's end they repeat its last value, whatever
    the input holds there. A finite row whose pooled sum overflows
    raises OverflowError, as the scalar kernel does.
    """
    z = -np.asarray(y, dtype=float)
    s, m = z.shape
    if s == 0:
        return z
    pad = np.arange(m) >= counts[:, None]
    counts = counts.tolist()
    # the stacks, column-major: block b of row r at flat index b * m + r
    starts = np.zeros(s * m, dtype=np.int64)
    wsum = np.ones(s * m)
    wysum = np.zeros(s * m)
    wysum[:m] = z[0]
    rows = np.arange(m)
    top = rows.copy()  # the flat index of each row's top block
    for i in range(1, s):
        zi, c = z[i, : counts[i]], counts[i]
        wt, wyt = wsum[top[:c]], wysum[top[:c]]
        # the scalar test wysum[top] * 1.0 > z[i] * wsum[top], for the new entry's weight of 1.0
        merged = wyt > zi * wt
        # push onto every row that reaches column i; above a merging row's top the slot stays dead
        above = top[:c] + m
        starts[above] = i
        wsum[above] = 1.0
        wysum[above] = zi
        top[:c] = np.where(merged, top[:c], above)
        r = np.flatnonzero(merged)
        t = top[r]
        wsum[t] = wt[r] + 1.0
        wysum[t] = wyt[r] + zi[r]
        while len(deep := np.flatnonzero(t >= m)):
            r, t = r[deep], t[deep]
            ws_t, wy_t, ws_p, wy_p = wsum[t], wysum[t], wsum[t - m], wysum[t - m]
            merge = np.flatnonzero(wy_p * ws_t > wy_t * ws_p)
            r, t = r[merge], t[merge] - m
            wsum[t] = ws_p[merge] + ws_t[merge]
            wysum[t] = wy_p[merge] + wy_t[merge]
            top[r] = t
    live = np.arange(s)[:, None] <= top // m
    value = wysum
    value /= wsum  # each block's mean; its running sum is not read again
    # blocks of three or more, row by row, as the scalar kernel visits them;
    # with unit weights a live block's wsum is its length, exactly
    long = np.flatnonzero(live.ravel() & (wsum >= 3.0))
    if len(long):
        long = long[np.argsort(long % m, kind="stable")]
        r = long % m
        lengths = wsum[long].astype(np.int64)
        j = np.arange(lengths.max())[:, None]
        cols = np.minimum(starts[long] + j, s - 1)
        x = np.where(j < lengths, z.ravel()[cols * m + r], 0.0)
        value[long] = _fsum_columns(x, lengths) / lengths
    # block ids by a running add down the columns: a block's first column moves its row up by m;
    # a pad starts no block, so it keeps its row's last one. Built after the block sums, whose
    # freed buffers they reuse: a fresh page costs a fault once the heap top has been trimmed.
    blocks = np.flatnonzero(live)
    block = np.zeros((s, m), dtype=np.int64)
    block.ravel()[starts[blocks] * m + blocks % m] = m
    block[0] = rows
    for i in range(1, s):
        block[i] += block[i - 1]
    out = -value[block]
    raise_on_overflow(z, out, pad)
    return out


def _project_pairs(y: np.ndarray) -> np.ndarray:
    """``project_rows_non_increasing`` on two-entry rows, in closed form, with one array row per bundle.

    With ``z = -y`` the stack merges the two entries iff ``z0 > z1`` and
    then holds ``(z0 + z1) / 2.0``; an unmerged entry is ``-(-y)``, which
    is ``y`` exactly. A finite pair whose sum overflows raises OverflowError.
    """
    z = -y
    pooled = np.flatnonzero(z[:, 0] > z[:, 1])
    out = y.copy()
    out[pooled] = -((z[pooled, 0] + z[pooled, 1]) / 2.0)[:, None]
    raise_on_overflow(y.T, out.T)
    return out


def isotonic_fit(
    values: np.ndarray, weights: np.ndarray | None = None, direction: str = NON_INCREASING
) -> np.ndarray:
    """Unique least-squares monotone fit of ``values``.

    ``weights`` defaults to all ones. ``direction`` is the monotonicity
    required of the output along the index order of ``values``. Returns a
    piecewise-constant vector whose blocks are weighted means of the pooled
    input entries. An empty input yields an empty output. A weighted value
    ``w * y`` or a pooled sum that overflows raises fsum's OverflowError.
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
    with np.errstate(over="ignore"):
        if w is not None and not np.isfinite(w * y).all():
            raise OverflowError("intermediate overflow in fsum")
    segments = ((0, y.size),)
    if direction == NON_DECREASING:
        return _pava_non_decreasing(y, w, segments)
    return -_pava_non_decreasing(-y, w, segments)


def isotonic_project_indexed(scores: np.ndarray, order: np.ndarray, blend: float) -> np.ndarray:
    """Project scores onto "non-increasing along order", then blend.

    ``order`` lists indices from best to worst; the projection forces
    scores[order[0]] >= scores[order[1]] >= ... . The result is
    blend * fitted + (1 - blend) * scores. Scores that are not a 1-d vector
    raise ValueError, and a pooled block of finite scores whose sum
    overflows raises fsum's OverflowError.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError(f"scores must be a 1-d vector, got shape {scores.shape}")
    order = np.asarray(order)
    n = len(scores)
    if not 0.0 <= blend <= 1.0:
        raise ValueError(f"blend must lie in [0, 1], got {blend}")
    # a permutation of range(n): a 1-d integer array that sorts to it
    if not (order.ndim == 1 and order.dtype.kind in "iu" and np.array_equal(np.sort(order), np.arange(n))):
        raise ValueError("order is not a permutation of the score indices")
    fitted = np.empty_like(scores)
    fitted[order] = isotonic_fit(scores[order])
    return blend * fitted + (1.0 - blend) * scores
