"""One-rep-at-a-time float64 reference for the parallel-analysis references
in tokenimpact.factors.

Each rep's draw is cross-tabulated pair by pair with boolean counts, its
tables are solved on their own, and its matrix is assembled and repaired in
float64. test_factors.py checks that the library's chunked path, which
counts with a float32 Gram and solves many reps in one batch, gives the same
eigenvalues for the same draws.
"""

from itertools import combinations

import numpy as np

from tokenimpact.polychoric import _maximize_rho, _prepare_tables, repair_to_psd


def eigenvalues(draws):
    """Descending eigenvalues of each draw's latent-correlation matrix."""
    out = []
    for x in draws:
        p = x.shape[1]
        pairs = list(combinations(range(p), 2))
        raw = np.array(
            [[(~x[:, i] & ~x[:, j]).sum(), (~x[:, i] & x[:, j]).sum(),
              (x[:, i] & ~x[:, j]).sum(), (x[:, i] & x[:, j]).sum()] for i, j in pairs],
            dtype=np.float64,
        )
        cells, px, py, tx, ty, _ = _prepare_tables(raw)
        rho = _maximize_rho(cells, px, py, tx, ty)[0]
        values = np.eye(p)
        for (i, j), r in zip(pairs, rho):
            values[i, j] = values[j, i] = r
        out.append(np.sort(np.linalg.eigvalsh(repair_to_psd(values)[0]))[::-1])
    return np.stack(out)
