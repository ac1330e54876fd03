"""One-rep-at-a-time float64 reference for the parallel-analysis references
in tokenimpact.factors.

Each rep's co-occurrence Gram is cross-tabulated pair by pair, its tables
are solved on their own, and its matrix is assembled and repaired in
float64. test_factors.py checks that the library's chunked path, which
solves the tables of many reps in one batch and repairs only the reps that
need it, gives the same eigenvalues for the same Grams. ``bernoulli_grams``
draws the reference rows one by one, for the check that the library's
pattern-count draw has the same eigenvalue law.
"""

from itertools import combinations

import numpy as np

from tokenimpact.polychoric import _maximize_rho, _prepare_tables, repair_to_psd


def eigenvalues(grams, n):
    """Descending eigenvalues of the latent-correlation matrix of each Gram
    of n rows of 0/1 columns."""
    out = []
    for gram in grams:
        p = gram.shape[0]
        pairs = list(combinations(range(p), 2))
        raw = np.array(
            [[n - gram[i, i] - gram[j, j] + gram[i, j], gram[j, j] - gram[i, j],
              gram[i, i] - gram[i, j], gram[i, j]] for i, j in pairs],
            dtype=np.float64,
        )
        cells, px, py, tx, ty, _ = _prepare_tables(raw)
        rho = _maximize_rho(cells, px, py, tx, ty)[0]
        values = np.eye(p)
        for (i, j), r in zip(pairs, rho):
            values[i, j] = values[j, i] = r
        out.append(np.sort(np.linalg.eigvalsh(repair_to_psd(values)[0]))[::-1])
    return np.stack(out)


def bernoulli_grams(prevalences, n, seed, reps):
    """Int64 Gram of each of reps draws of n rows, each row's tokens drawn
    from n x p uniforms against the prevalences."""
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(reps):
        x = (rng.random((n, len(prevalences))) < prevalences).astype(np.int64)
        grams.append(x.T @ x)
    return np.stack(grams)
