"""Shared test helpers: which OpenBLAS kernel this process rounds with.

Some pins hold the bits of one BLAS kernel (the ``kernel_pinned`` marker).  A test that pins
a value per kernel takes the ``blas_kernel`` fixture and looks its value up by that name.
"""

import hashlib

import numpy as np
import pytest

#: ``blas_fingerprint()`` under each kernel pins are recorded for (numpy 2.4.6, OpenBLAS 0.3.31).
KERNELS = {
    "9a758e6b0daabb00c9a8df0b226e43d0b8114c51efb3e7c8ecf0602f769e8d1a": "SkylakeX",
    "5d3eecde4264e23115bdb1e4a1013fb54e2f45f4bf1ba28bb1e334a451603be5": "Haswell",
    "603f52e44cc7bee5f13ad55cb6d333ef85728a70dbb7b528472e8e35cdd73981": "Prescott",
}


def blas_fingerprint() -> str:
    """A SHA-256 of small ``dot`` and ``gemv`` results on fixed inputs, which round by kernel.

    The inputs are seeded and each product runs on aligned and on offset operands.
    """
    rng, digest = np.random.default_rng(20091106), hashlib.sha256()
    for n in (2, 3, 5, 10, 50):
        a, x = rng.standard_normal((n, n + 1)), rng.standard_normal(n + 1)
        for v in (x[:n], x[1:]):
            digest.update(v.dot(a[:, :n].T).tobytes())
            digest.update(v.dot(x[:n]).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="session")
def blas_kernel() -> str:
    """The name of the kernel this process rounds with; an unknown fingerprint fails the test."""
    fingerprint = blas_fingerprint()
    if fingerprint not in KERNELS:
        pytest.fail(f"unknown BLAS kernel fingerprint {fingerprint}: no pins are recorded for it")
    return KERNELS[fingerprint]
