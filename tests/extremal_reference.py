"""Trial-by-trial reference for the extremal targets under stream contract v5.

Written from the contract text in ``kyfan.extremal``, not from the engine:
block j of ``max(1, BLOCK_ENTRIES // n_max**2)`` trials is drawn from
``base.offset(j).generator()`` as n, k, the weight's ones-mask, entries and
tail mask, then one flat draw of the normals of c, C or B, the trials'
exact-size runs one after another, then, for the matrix target, once per
sample index the families and one flat draw of the trials' Haar normals.
Trial t takes row ``t % size`` of its block and its own run of each flat
draw.  Each trial then gets a :class:`~kyfan.norms.Weight` of its own and
is scored alone, in 2-D, by the gap formulas below, which spell out
``support_function_gap``, ``matrix_ball_support_gap`` and the trace bound
at ``von_neumann_equality_witness``: a candidate U_j V_j^* / scale is
scored as the j-th cumulative sum of Re diag(U^* C V), divided by scale.
"""

import numpy as np

from kyfan.ensembles import sign_vectors
from kyfan.matrixcore import svd
from kyfan.norms import Weight, dual_weighted_vector_k_norm
from kyfan.suite import BLOCK_ENTRIES


def block_size(n_max):
    return max(1, BLOCK_ENTRIES // (n_max * n_max))


def split(flat, lengths):
    """``flat`` cut into consecutive runs of the given lengths."""
    return np.split(flat, np.cumsum(lengths)[:-1])


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
        lengths = n if target == "vector" else 2 * n * n
        normals = split(g.standard_normal(lengths.sum()), lengths)
        sampled = []
        if target == "matrix":
            for _ in range(samples):
                families = g.integers(k)
                sampled.append((families, split(g.standard_normal(4 * (n * n).sum()), 4 * n * n)))
        for row in range(min(size, trials - block * size)):
            dim = int(n[row])
            if target == "vector":
                x = normals[row]
            else:
                x = normals[row].reshape(2, dim, dim)
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
            draws = [(int(f[row]), s[row].reshape(2, 2, dim, dim)) for f, s in sampled]
            yield dim, Weight(weight, kr), x, draws


def ginibre(w):
    return (w[0] + 1j * w[1]) / np.sqrt(2.0)


def haar(w):
    q, r = np.linalg.qr(w[0] + 1j * w[1])
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def diagonal(m, u, v):
    """diag(U^* M V): entry i is u_i^* M v_i."""
    return np.diagonal(u.conj().T @ m @ v)


def vector_gap(c, w, signs=sign_vectors):
    """The vector gap of c under w; ``signs(n, j)`` gives the sign table E_j,
    so a caller scoring many rows can build each table once."""
    n = c.size
    ws = w.prefix_sums()
    best = float((signs(n, n) @ c).max()) / ws[w.k - 1]
    for j in range(1, w.k):
        best = max(best, float((signs(n, j) @ c).max()) / ws[j - 1])
    return abs(best - dual_weighted_vector_k_norm(c, w))


def matrix_gap(m, w, draws):
    """The matrix gap of C = m under w, with one candidate per (family, normals) draw."""
    n = m.shape[0]
    u, sig, v = svd(m)
    ws = w.prefix_sums()
    groups = [(j, ws[j - 1]) for j in range(1, w.k)] + [(n, ws[w.k - 1])]
    sums = np.cumsum(diagonal(m, u, v).real)
    aligned = max(sums[j - 1] / scale for j, scale in groups)
    gap = abs(aligned - dual_weighted_vector_k_norm(sig, w))
    for family, normals in draws:
        j, scale = groups[family]
        sums = np.cumsum(diagonal(m, haar(normals[0]), haar(normals[1])).real)
        gap = max(gap, sums[j - 1] / scale - aligned)
    return float(gap)


def equality_gap(b):
    """| |tr(AB)| - sigma_1(B) | at A = v1 u1^*, whose tr(AB) is u1^* B v1."""
    u, sig, v = svd(b)
    return abs(abs(diagonal(b, u, v)[0]) - sig[0])


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
