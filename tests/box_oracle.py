"""The dense box matrix of one axis: the oracle of the box rows in ``agf.geometry``.

``agf`` keeps each row of the box matrix as its parts (``BoxPanels``); this
module forms the whole len(x) x s matrix, cell by cell, for the tests.
"""

import numpy as np

from agf import ParameterError


def box_weights(coords, nk: int, c: float) -> np.ndarray:
    """The 1-D box-average matrix W(x, j) of one axis, shape (len(coords), nk).

    W(x, j) is the overlap of cell [j c, (j+1) c) with [x/2, x], divided by
    the box side x/2, so that (W @ v)(x) is the average over [x/2, x] of the
    step function with cell values v.  Coordinates must be positive.
    """
    x = np.asarray(coords, dtype=np.float64)
    if np.any(x <= 0):
        raise ParameterError("box average requires strictly positive coordinates")
    lo = np.maximum((x / 2.0)[:, None], np.arange(nk, dtype=np.float64) * c)
    w = np.minimum(x[:, None], np.arange(1, nk + 1, dtype=np.float64) * c)
    w -= lo
    np.maximum(w, 0.0, out=w)
    w /= (x / 2.0)[:, None]
    return w
