"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def stall_lapack(monkeypatch):
    """``stall_lapack("eigh")``: from then on, that ``np.linalg`` function
    raises the ``LinAlgError`` numpy raises when its LAPACK call fails.
    Keyword arguments stall only the calls that pass them:
    ``stall_lapack("svd", compute_uv=False)`` fails values-only SVDs."""

    def stall(routine, **only):
        real = getattr(np.linalg, routine)

        def failed(*args, **kwargs):
            if only.items() <= kwargs.items():
                raise np.linalg.LinAlgError(f"{routine} did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, routine, failed)

    return stall
