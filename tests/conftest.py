"""Fixtures shared by the test modules, and the hypothesis profile they run
under."""

import numpy as np
import pytest
from hypothesis import settings

# Every run draws the same examples, and no stored failure is replayed, so
# a commit's test verdict does not depend on the draw or on local state.
# A counterexample worth keeping is pinned with @example.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


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
