"""Analytic spectra of the symmetric eigensolver the spectral step uses (``numpy.linalg.eigh``)."""

import numpy as np


def test_identity():
    assert np.linalg.eigvalsh(np.eye(2)).tolist() == [1.0, 1.0]


def test_two_by_two_analytic():
    # (2 - l)^2 - 1 = 0  ->  l in {1, 3}
    assert np.allclose(np.linalg.eigvalsh(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0], atol=1e-12)


def test_diagonal_axis_aligned():
    vals, vecs = np.linalg.eigh(np.diag([3.0, 1.0, 2.0]))
    assert vals.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_zero_and_single():
    assert np.linalg.eigvalsh(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]
    assert np.linalg.eigvalsh(np.array([[7.0]])).tolist() == [7.0]
