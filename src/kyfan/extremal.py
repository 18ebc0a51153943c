"""The ``kyfan extremal`` engine: support functions at the extreme points.

The convexity step of the paper's proof puts the worst B at an extreme
point of the weighted Ky Fan ball, so ``kyfan extremal`` scores the support
function there: sign-vector candidates of the vector ball (``vector``),
scaled partial isometries of the matrix ball (``matrix``) and the rank-one
trace-equality construction (``equality``), each against its closed form.
This module imports :mod:`kyfan.ensembles`, :mod:`kyfan.matrixcore` and
:mod:`kyfan.norms` only, so a ``kyfan extremal`` run loads no checker.

Extremal engine (stream contract v5, unchanged in v6)
----------------------------------------------------
The ``kyfan extremal`` targets are scored one chunk of
``EXTREMAL_CHUNK_BLOCKS`` blocks at a time, by :func:`_extremal_chunk_gaps`.
``kyfan.cli`` deals a section's chunks over its processes as the section's
parts and folds their gaps in chunk order; :func:`_extremal_gaps` is the
same concatenation in one process.  Block j of a section holds
``B = max(1, BLOCK_ENTRIES // n_max**2)`` trials (64 at n_max = 8) and is
drawn from ``stream.offset(j).generator()``, each draw one call over the
whole block, in this order:

- n, as ``g.integers(2, n_max + 1, size=B)``;
- for ``vector`` and ``matrix``, k as ``g.integers(1, n + 1)`` over the
  block's n, then the weight: the ones-mask ``g.uniform(size=B) < 0.15``,
  the entries ``g.uniform(0.05, 1, (B, n_max))``, the tail mask
  ``g.uniform(size=B) < 0.5``.  Trial t's weight is k ones or its first k
  entries sorted nonincreasing, followed by n - k zeros where k < n and the
  tail mask is set, as ``random_weight`` builds it;
- the normals, exact-size, one flat draw whose runs are the trials' in
  order: ``g.standard_normal(sum(n))``, trial t's n entries of c, or
  ``g.standard_normal(2 * sum(n**2))``, trial t's n x n real part of C or
  B, then its n x n imaginary part, both row-major;
- for ``matrix``, once per sample index: each trial's family
  ``g.integers(k)``, then ``g.standard_normal(4 * sum(n**2))``, trial t's
  (2, 2, n, n) normals of the two Haar factors U and V of its sampled
  candidate (U's real and imaginary parts, then V's).

Trial t uses exactly its own runs.  A block draws all B trials, so trial
t's n, weight and C depend only on the seed, the section base, n_max and t,
never on ``--trials`` or ``--samples``, and a section of T trials opens
``ceil(T / B)`` streams.  The weights stay a ``(B, n_max)``
array of prefix sums; :class:`~kyfan.norms.Weight`'s checks run on it row by
row.  Every vector trial's families are checked against
``ENUMERATION_BUDGET`` before any trial of its chunk is scored, naming the
first over-budget trial in trial order; a run raises its earliest failing
chunk's error, so that trial is the section's first over-budget trial.

A chunk opens only its own blocks' streams, so its gaps do not depend on
which chunks run before it or in which process.  Its blocks' trials are
scored together, grouped by n into ``(T, n, n)`` stacks: one ``svd`` of the
C or B stack and one Haar QR per sample index.  No candidate matrix is
formed.  For a partial isometry X = U_j V_j* the value Re tr(C* X) equals
the sum of the real parts of the first j entries of diag(U* C V), so every
candidate is scored through ``_diagonal_inner``, two stacked matmuls
``(U* C) V`` and their diagonal:

- aligned: U and V are C's singular vectors, and family p < k scores
  ``cumsum(diag.real)[rank - 1] / ws[p]``, rank p + 1 for p < k - 1 and n
  for p = k - 1;
- sampled: U and V are the two Haar factors, scored the same way at the
  trial's drawn family;
- equality: the gap is | abs(u1* B v1) - sigma_1(B) |, u1* B v1 being the
  first diagonal entry and tr(AB) at A = ``von_neumann_equality_witness(B)``
  of :mod:`kyfan.suite`.

The public ``support_function_gap`` and ``matrix_ball_support_gap`` of
:mod:`kyfan.ensembles` and ``von_neumann_equality_witness`` of
:mod:`kyfan.suite` are these same helpers on one input.
Beyond the rules above:

- each diagonal comes from stacked matmuls and each cumulative sum runs
  over the last axis, so a trial's value does not depend on its stack: the
  reference loop of the tests, which scores every trial alone in 2-D, gets
  the same bits;
- the sign-matrix products of the vector target are one broadcast
  ``np.matmul(S, C[:, :, None])`` per family over the trials that use it,
  at most ``ENUMERATION_BUDGET`` entries a product with S, which numpy
  runs as one matrix-vector product per trial: no row maximum changed in
  17,500 (n, j, vector) checks (n = 2..8, every j, 250 vectors each,
  twice), where one matrix-matrix product ``S @ C.T`` changed 1345 of 8750;
- ``abs`` of each equality trace is taken as a scalar;
- the dual norm sorts and sums each row and forms the same quotients as
  the one-vector form, so its maximum is the same number.

The per-trial gaps are then reduced to a maximum and a violation count,
neither of which depends on order, so grouping by n changes no byte.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import (
    BLOCK_ENTRIES,
    _aligned_gaps,
    _as_stream,
    _check_enumeration_budgets,
    _diagonal_inner,
    _ginibre,
    _sampled_values,
    _support_gaps,
)
from .matrixcore import svd
from .norms import _check_weight_rows

__all__ = ["EXTREMAL_TARGETS", "EXTREMAL_CHUNK_BLOCKS"]

EXTREMAL_TARGETS = ("vector", "matrix", "equality")

#: blocks of extremal trials drawn and scored together: one chunk, also the
#: unit that ``kyfan.cli`` deals over a run's processes.  A trial's draws
#: depend only on its block, so this is a speed and memory knob, not part of
#: the stream contract.  Measured when a run scored all its chunks in one
#: process, on ``perfbench/run.py --workload extremal`` (n_max = 8, 64
#: trials a block, 2-vCPU x86_64 VM, 4 alternated 10 s runs each) 4, 8 and
#: 16 blocks ran 42.9k-45.2k, 47.6k-50.5k and 49.2k-51.3k trials/s at
#: 39.75, 40.8 and 42.4 MB peak RSS, against 40.5 MB for contract v4's
#: engine at 4 blocks: 8 is the largest of these within 1 MB of it
EXTREMAL_CHUNK_BLOCKS = 8


def _draw_extremal(target, n_max, size, g):
    """Block RNG step of an extremal target: n, k, the weights, then the normals.

    Returns n and k as ``(size,)`` arrays, the weights as a ``(size, n_max)``
    table of prefix sums, checked as :class:`~kyfan.norms.Weight` checks
    them, and the block's normals as one flat array: trial t's n entries of
    c, or its 2 n**2 entries of C or B (the n x n real part, then the
    imaginary part), follow those of trial t - 1.  ``equality`` draws no k
    or weight.
    """
    n = g.integers(2, n_max + 1, size=size)
    lengths = n if target == "vector" else 2 * n * n
    if target == "equality":
        return n, None, None, g.standard_normal(int(lengths.sum()))
    k = g.integers(1, n + 1)
    ones = g.uniform(size=size) < 0.15
    entries = g.uniform(0.05, 1.0, (size, n_max))
    tail = g.uniform(size=size) < 0.5
    normals = g.standard_normal(int(lengths.sum()))
    active = np.arange(n_max) < k[:, None]
    # every drawn entry is at least 0.05, so a descending sort puts the k active ones first
    rows = np.sort(np.where(active, entries, 0.0), axis=-1)[:, ::-1]
    rows = np.where(active, np.where(ones[:, None], 1.0, rows), 0.0)
    # the tail only sets the weight's length: its zero entries enter no norm
    _check_weight_rows(rows, k, np.where(tail & (k < n), n, k))
    return n, k, np.cumsum(rows, axis=-1), normals


def _gather(flat, starts, shape):
    """The trials' contiguous runs of ``flat`` from ``starts``, as a (T, *shape) stack."""
    return flat[starts[:, None] + np.arange(math.prod(shape))].reshape(-1, *shape)


def _equality_gaps(b):
    """| |u1* B v1| - sigma_1(B) | for each B of a stack: the trace bound at
    :func:`~kyfan.suite.von_neumann_equality_witness`, whose tr(AB) is u1* B v1."""
    u, sig, v = svd(b)
    traces = _diagonal_inner(b, u, v)[:, 0]
    # scalar abs of each trace: the array form's bits depend on the element's position
    return np.abs(np.array([abs(t) for t in traces]) - sig[:, 0])


def _extremal_chunks(n_max, trials, samples) -> range:
    """The chunk indices of an extremal section of ``trials`` trials: chunk c
    holds blocks ``c * EXTREMAL_CHUNK_BLOCKS`` onward, at most
    ``EXTREMAL_CHUNK_BLOCKS`` of them.  Raises ``ValueError`` for an
    ``n_max`` below 2 or a negative trial or sample count."""
    n_max, trials, samples = int(n_max), int(trials), int(samples)
    if n_max < 2:
        raise ValueError(f"the extremal targets sample n >= 2, got a maximum of {n_max}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    size = max(1, BLOCK_ENTRIES // (n_max * n_max))
    return range(-(-trials // (size * EXTREMAL_CHUNK_BLOCKS)))


def _extremal_gaps(target: str, n_max: int, trials: int, s, samples: int) -> np.ndarray:
    """The gap of every trial of one extremal target, in trial order: the
    gaps of its chunks (:func:`_extremal_chunk_gaps`), one after another."""
    stream = _as_stream(s)
    return np.concatenate([np.empty(0)] + [
        _extremal_chunk_gaps(target, n_max, trials, stream, samples, chunk)
        for chunk in _extremal_chunks(n_max, trials, samples)])


def _extremal_chunk_gaps(target: str, n_max: int, trials: int, s, samples: int,
                         chunk: int) -> np.ndarray:
    """The gaps of the trials of chunk ``chunk`` of one extremal target, in trial order.

    Block j of ``max(1, BLOCK_ENTRIES // n_max**2)`` trials is drawn from
    ``stream.offset(j).generator()`` by :func:`_draw_extremal`, then, for
    ``matrix``, once per sample index, each trial's family ``g.integers(k)``
    and one flat draw of the 4 n**2 normals of each trial's two Haar
    factors, trial after trial.  The gaps are those of
    :func:`~kyfan.ensembles.support_function_gap`,
    :func:`~kyfan.ensembles.matrix_ball_support_gap` and the trace bound at
    :func:`~kyfan.suite.von_neumann_equality_witness`, scored on stacks of
    the chunk's trials that share n.  A chunk opens only its own blocks'
    streams, so its gaps do not depend on which chunks are scored before it,
    or where.
    """
    chunks = _extremal_chunks(n_max, trials, samples)
    if chunk not in chunks:
        raise ValueError(f"chunk {chunk} is not one of the section's {len(chunks)} chunks")
    n_max, trials, samples = int(n_max), int(trials), int(samples)
    stream = _as_stream(s)
    size = max(1, BLOCK_ENTRIES // (n_max * n_max))
    first = chunk * EXTREMAL_CHUNK_BLOCKS
    # a block draws all its trials even where the run ends inside it, so
    # trial t's inputs depend on neither the trial nor the sample count
    generators = [stream.offset(b).generator()
                  for b in range(first, min(-(-trials // size), first + EXTREMAL_CHUNK_BLOCKS))]
    draws = [_draw_extremal(target, n_max, size, g) for g in generators]
    # per sample index, each block draws the 4 n**2 Haar normals of all its trials
    sampling = [(g, k, 4 * int((n * n).sum())) for g, (n, k, _, _) in zip(generators, draws)]
    n, k, ws, normals = (None if column[0] is None else np.concatenate(column)
                         for column in zip(*draws))
    del draws
    n = n[:trials - first * size]
    out = np.empty(len(n))
    if target == "vector":
        # name the first over-budget trial before any is scored
        _check_enumeration_budgets(n, k[:len(n)])
    per_trial = n if target == "vector" else 2 * n * n
    starts = np.cumsum(per_trial) - per_trial
    groups = [(dim, np.flatnonzero(n == dim)) for dim in sorted(set(n.tolist()))]
    if target == "vector":
        for dim, idx in groups:
            out[idx] = _support_gaps(_gather(normals, starts[idx], (dim,)),
                                     ws[idx, :dim], k[idx])
        return out
    mats = [_ginibre(_gather(normals, starts[idx], (2, dim, dim))) for dim, idx in groups]
    del normals  # the stacks hold what the trials use of it
    if target == "equality":
        for (_, idx), b in zip(groups, mats):
            out[idx] = _equality_gaps(b)
        return out
    aligned = []
    for (dim, idx), c in zip(groups, mats):
        out[idx], best = _aligned_gaps(c, ws[idx, :dim], k[idx])
        aligned.append(best)
    for _ in range(samples):
        picks, haar = zip(*((g.integers(block_k), g.standard_normal(entries))
                            for g, block_k, entries in sampling))
        picks, haar = np.concatenate(picks), np.concatenate(haar)
        for (dim, idx), c, best in zip(groups, mats, aligned):
            # a trial's Haar normals start at twice the offset of its normals of C
            values = _sampled_values(c, ws[idx, :dim], k[idx], picks[idx],
                                     _gather(haar, 2 * starts[idx], (2, 2, dim, dim)))
            out[idx] = np.maximum(out[idx], values - best)
    return out
