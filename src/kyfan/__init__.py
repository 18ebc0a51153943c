"""Numerical toolkit for weighted Ky Fan norms and singular value inequalities.

The package bundles:

* dense complex matrix primitives (SVD, column profiles, Kronecker products,
  partial traces) in :mod:`kyfan.matrixcore`;
* weighted vector/matrix k-norms and their duals in :mod:`kyfan.norms`;
* seeded random ensembles plus extreme-point candidate machinery in
  :mod:`kyfan.ensembles`;
* masked entrywise bilinear forms (Hadamard / diagonal-negated products and
  their trace adjoints) in :mod:`kyfan.forms`;
* randomized inequality checkers and an exact 3x3 counterexample
  reproduction in :mod:`kyfan.suite`;
* the ``extremal`` engine, which scores support functions at the extreme
  points of the weighted Ky Fan balls, in :mod:`kyfan.extremal`;
* a partial-trace lab with closed forms, commuting regressions, and
  counterexample searches in :mod:`kyfan.ptrace`;
* a seeded, report-writing command line in :mod:`kyfan.cli`.

Every random draw goes through explicit (master_seed, stream_index) streams,
so any run is replayable bit-for-bit.
"""

__version__ = "0.7.0"

from .matrixcore import (
    column_norms,
    column_norms_unsorted,
    factor_sqrt,
    hadamard,
    kronecker,
    partial_trace_first,
    singular_values,
    svd,
)
from .norms import (
    Weight,
    dual_weighted_vector_k_norm,
    kyfan_norm,
    trace_norm,
    weighted_column_norm,
    weighted_kyfan_norm,
    weighted_vector_k_norm,
)

__all__ = [
    "__version__",
    "Weight",
    "column_norms",
    "column_norms_unsorted",
    "dual_weighted_vector_k_norm",
    "factor_sqrt",
    "hadamard",
    "kronecker",
    "kyfan_norm",
    "partial_trace_first",
    "singular_values",
    "svd",
    "trace_norm",
    "weighted_column_norm",
    "weighted_kyfan_norm",
    "weighted_vector_k_norm",
]
