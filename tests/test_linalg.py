"""Rank-revealing helpers of ``linalg``."""

import numpy as np

from torsionworks import linalg


def test_min_norm_preimage_honors_tol():
    a = np.diag([1.0, 1e-10]).astype(complex)
    targets = np.array([[0.0], [1e-10]], dtype=complex)
    x, _ = linalg.min_norm_preimage(a, targets, 1e-8)
    assert np.allclose(x, 0.0, atol=1e-12)
    x, defect = linalg.min_norm_preimage(a, targets, 1e-12)
    assert np.allclose(x, [[0.0], [1.0]], atol=1e-9)
    assert defect < 1e-15
