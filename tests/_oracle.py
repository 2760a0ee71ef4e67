"""Dense least-norm oracle for the quotient norms of ``hoermander_kit.spectra``.

It shares no code with the package's three quotient entry points (the
direct engine, the Gram with its parity coordinates, and the CG
cross-check), so the tests hold each of them against it.  Small lattices
only: it builds the full synthesis matrix.
"""

import numpy as np

from hoermander_kit.spectra import SubdomainMask
from hoermander_kit.weights import RegularityIndex


def quotient_norm_dense(
    idx: RegularityIndex, samples_on_v: np.ndarray, mask: SubdomainMask
) -> float:
    """Dense least-norm oracle, independent of the CG path (small lattices only)."""
    lattice = mask.lattice
    n = lattice.npoints
    if n > 4096:
        raise ValueError("dense oracle is limited to lattices with <= 4096 points")
    mu = lattice.weight(idx).reshape(-1)
    # rows of the map coefficients -> masked physical samples
    eye = np.eye(n, dtype=complex).reshape((n,) + lattice.sizes)
    phys = np.fft.ifftn(eye, axes=tuple(range(1, lattice.k + 1)), norm="ortho")
    A = phys.reshape(n, n).T[mask.mask.reshape(-1), :]
    d = np.asarray(samples_on_v, dtype=complex).reshape(-1)
    # minimize ||diag(mu) c|| s.t. A c = d; substitute y = mu*c
    B = A / mu[None, :]
    y, *_ = np.linalg.lstsq(B, d, rcond=None)
    return float(np.linalg.norm(y))
