"""Trial-by-trial reference for the extremal targets under stream contract v3.

Written from the contract text in ``kyfan.suite``, not from the engine:
block j of ``max(1, BLOCK_ENTRIES // n_max**2)`` trials is drawn from
``base.offset(j).generator()`` as n, k, the weight's ones-mask, entries and
tail mask, then the normals of c, C or B, then, for the matrix target, once
per sample index the families and the normals of the two Haar factors.
Trial t takes row ``t % size`` of its block and the leading n entries or
n x n corner of it.  Each trial then gets a :class:`~kyfan.norms.Weight` of
its own and is scored alone by the gap formulas below, which spell out
``support_function_gap``, ``matrix_ball_support_gap`` and the trace bound
at ``von_neumann_equality_witness``.
"""

import numpy as np

from kyfan.ensembles import sign_vectors
from kyfan.matrixcore import svd
from kyfan.norms import Weight, dual_weighted_vector_k_norm
from kyfan.suite import BLOCK_ENTRIES


def block_size(n_max):
    return max(1, BLOCK_ENTRIES // (n_max * n_max))


def trial_draws(target, base, n_max, trials, samples):
    """Yield (n, weight, normals, sample draws) of each trial in order.

    ``weight`` is None for the equality target; the sample draws are a list
    of (family, (2, 2, n, n) normals) pairs, empty but for the matrix target.
    """
    size = block_size(n_max)
    for block in range(-(-trials // size)):
        g = base.offset(block).generator()
        n = g.integers(2, n_max + 1, size=size)
        if target != "equality":
            k = g.integers(1, n + 1)
            ones = g.uniform(size=size) < 0.15
            entries = g.uniform(0.05, 1.0, (size, n_max))
            tail = g.uniform(size=size) < 0.5
        shape = (size, n_max) if target == "vector" else (size, 2, n_max, n_max)
        normals = g.standard_normal(shape)
        sampled = []
        if target == "matrix":
            for _ in range(samples):
                families = g.integers(k)
                sampled.append((families, g.standard_normal((size, 2, 2, n_max, n_max))))
        for row in range(min(size, trials - block * size)):
            dim = int(n[row])
            if target == "vector":
                x = normals[row, :dim]
            else:
                x = normals[row, :, :dim, :dim]
            if target == "equality":
                yield dim, None, x, []
                continue
            kr = int(k[row])
            if ones[row]:
                weight = (1.0,) * kr
            else:
                weight = tuple(np.sort(entries[row, :kr])[::-1])
            if kr < dim and tail[row]:
                weight += (0.0,) * (dim - kr)
            draws = [(int(f[row]), s[row, :, :, :dim, :dim]) for f, s in sampled]
            yield dim, Weight(weight, kr), x, draws


def ginibre(w):
    return (w[0] + 1j * w[1]) / np.sqrt(2.0)


def haar(w):
    q, r = np.linalg.qr(w[0] + 1j * w[1])
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def re_inner(m, x):
    """Re tr(M^* X), summed over the entries in row-major order."""
    return float(np.sum(m.real * x.real + m.imag * x.imag))


def vector_gap(c, w):
    n = c.size
    ws = w.prefix_sums()
    best = float((sign_vectors(n, n) @ c).max()) / ws[w.k - 1]
    for j in range(1, w.k):
        best = max(best, float((sign_vectors(n, j) @ c).max()) / ws[j - 1])
    return abs(best - dual_weighted_vector_k_norm(c, w))


def matrix_gap(m, w, draws):
    """The matrix gap of C = m under w, with one candidate per (family, normals) draw."""
    n = m.shape[0]
    u, sig, v = svd(m)
    ws = w.prefix_sums()
    groups = [(j, ws[j - 1]) for j in range(1, w.k)] + [(n, ws[w.k - 1])]
    aligned = max(re_inner(m, (u[:, :j] @ v[:, :j].conj().T) / scale) for j, scale in groups)
    gap = abs(aligned - dual_weighted_vector_k_norm(sig, w))
    for family, normals in draws:
        j, scale = groups[family]
        q = (haar(normals[0])[:, :j] @ haar(normals[1])[:, :j].conj().T) / scale
        gap = max(gap, re_inner(m, q) - aligned)
    return float(gap)


def equality_gap(b):
    u, sig, v = svd(b)
    a = np.outer(v[:, 0], u[:, 0].conj())
    return abs(abs(np.trace(a @ b)) - sig[0])


def reference_gaps(target, base, n_max, trials, samples):
    gaps = []
    for _, w, x, draws in trial_draws(target, base, n_max, trials, samples):
        if target == "vector":
            gaps.append(vector_gap(x, w))
        elif target == "matrix":
            gaps.append(matrix_gap(ginibre(x), w, draws))
        else:
            gaps.append(equality_gap(ginibre(x)))
    return np.array(gaps, dtype=np.float64)
