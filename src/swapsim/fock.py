"""Linear optics and threshold detection on photon-number blocks.

Linear optics on n photons is the n-photon block of its mode matrix
(:func:`lift`) on the occupations of its modes (:func:`occupations`);
threshold detectors click with :func:`click_probability` given the
photons they see, and every detector's POVM is those click probabilities
against outer-product sums of the optics (:func:`detector_povm`).
Amplitudes of at most ``PRUNE_TOL`` count as unreached.

The engines use only these matrix forms; ``experiment._source_sectors``
writes the sources' state in closed form, and ``bisa.victor_povm`` takes
the input loss into Victor's POVM.
"""

from __future__ import annotations

import functools
from math import sqrt

import numpy as np

PRUNE_TOL = 1e-14

# Jones matrices.  qwp at +45 deg sends |H> to (|H> + i|V>)/sqrt2 (= |R> up
# to phase), qwp at -45 deg sends |H> to (|H> - i|V>)/sqrt2.
JONES_QWP_P45 = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / sqrt(2.0)
JONES_QWP_M45 = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / sqrt(2.0)


@functools.cache  # a few (m, n) per process, shared by every lift
def occupations(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The occupations of ``m`` modes holding ``n`` photons in all, sorted."""
    if m == 1:
        return ((n,),)
    return tuple((k, *rest) for k in range(n + 1) for rest in occupations(m - 1, n - k))


def lift(mat: np.ndarray, n: int) -> np.ndarray:
    """The ``n``-photon block of the linear optics with ``m`` x ``m`` mode
    matrix ``mat``, as a matrix ``L[o, i]`` on ``occupations(m, n)``: the
    amplitude of occupation o for the input occupation i, with no photon
    cap.  Creation operators transform as a_i -> sum_j mat[j, i] a_j, which
    for a Jones matrix J is the single-photon ket map |p> -> J|p>.  A
    stack of mode matrices ``mat[..., :, :]`` gives the stack of blocks.

    The block is built up one photon at a time.  An input i is
    a_k+ |i - e_k> / sqrt(i_k), k its first occupied mode, so column i of
    L_n is sum_j mat[j, k] a_j+ L_{n-1}[:, i - e_k] / sqrt(i_k).
    """
    mat = np.asarray(mat, dtype=complex)
    m = mat.shape[-1]
    block = np.ones((*mat.shape[:-2], 1, 1), dtype=complex)
    prev = occupations(m, 0)
    for photons in range(1, n + 1):
        occs = occupations(m, photons)
        row = {occ: r for r, occ in enumerate(occs)}
        col = {occ: c for c, occ in enumerate(prev)}
        first = [next(k for k, x in enumerate(occ) if x) for occ in occs]
        removed = [col[occ[:k] + (occ[k] - 1,) + occ[k + 1 :]] for occ, k in zip(occs, first)]
        scale = mat[..., first] / np.sqrt([occ[k] for occ, k in zip(occs, first)])
        # lower[..., j, o, i] = mat[j, k] L_{n-1}[o, i - e_k] / sqrt(i_k)
        lower = block[..., None, :, removed] * scale[..., :, None, :]
        block = np.zeros((*mat.shape[:-2], len(occs), len(occs)), dtype=complex)
        for j in range(m):
            up = [row[occ[:j] + (occ[j] + 1,) + occ[j + 1 :]] for occ in prev]
            norm = np.sqrt([occ[j] + 1.0 for occ in prev])
            block[..., up, :] += norm[:, None] * lower[..., j, :, :]
        prev = occs
    return block



def click_probability(n, eta):
    """(P(silent), P(click)) of a threshold detector that sees ``n`` photons,
    each detected independently with efficiency ``eta``: silent with
    (1 - eta)^n.  ``n`` may be a numpy array."""
    p_silent = (1.0 - eta) ** n
    return p_silent, 1.0 - p_silent


def detector_povm(clicks: np.ndarray, outers: np.ndarray) -> np.ndarray:
    """A detector's POVM E[k] = sum_c clicks[c, k] outers[c]: the real
    probabilities of outcome k given photon counts c against ``outers[c]``,
    the sum of T[:, j] T[:, j]^dagger over the outputs j of the optics with
    counts c (real or complex, any trailing shape).  A complex sum is
    contracted as its real and imaginary parts in one real np.matmul (see
    the BLAS note in experiment.py)."""
    flat = outers.reshape(len(outers), -1).view(float)
    summed = clicks.T @ flat
    return summed.view(outers.dtype).reshape(clicks.shape[1], *outers.shape[1:])
