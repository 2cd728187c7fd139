import subprocess
import sys

import numpy as np
import pytest

from rwkit import kernels

pytestmark = pytest.mark.skipif(
    not kernels.HAS_NUMBA, reason="numba backend not available in this environment"
)


def random_coefficients(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestBackendAgreement:
    def test_soft_threshold_matches(self):
        for seed in range(10):
            u = random_coefficients(257, seed)
            for lam in (0.0, 0.3, 2.0):
                np.testing.assert_allclose(
                    kernels.soft_threshold_numba(u, lam),
                    kernels.soft_threshold_numpy(u, lam),
                    atol=1e-14,
                )

    def test_soft_threshold_zero_entries(self):
        u = np.zeros(8, dtype=np.complex128)
        np.testing.assert_array_equal(kernels.soft_threshold_numba(u, 0.5), u)
        np.testing.assert_array_equal(kernels.soft_threshold_numpy(u, 0.5), u)


def run_with_backend(backend, code):
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "RWKIT_BACKEND": backend},
    )


class TestBackendSelection:
    def test_numpy_backend_forced(self):
        proc = run_with_backend(
            "numpy", "from rwkit import kernels; print(kernels.BACKEND)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    def test_numba_backend_default(self):
        proc = run_with_backend(
            "numba", "from rwkit import kernels; print(kernels.BACKEND)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numba"

    def test_invalid_backend_rejected(self):
        proc = run_with_backend("fortran", "import rwkit")
        assert proc.returncode != 0
        assert "RWKIT_BACKEND" in proc.stderr

    def test_numpy_backend_full_pipeline(self):
        code = (
            "import numpy as np\n"
            "from rwkit import Frame, ReconstructionParams, purify, kernels\n"
            "assert kernels.BACKEND == 'numpy'\n"
            "x = np.zeros(32); x[3] = 1.0\n"
            "p = purify(x, ReconstructionParams(iterations=300, threshold=0.002,"
            " subsample_prob=0.8, frame=Frame(kind='identity')), 0)\n"
            "print(float(np.linalg.norm(p.value - x)) < 0.05)\n"
        )
        proc = run_with_backend("numpy", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"
