"""Fixtures shared by the test modules."""

import types

import numpy as np
import pytest

from specvar import linalg


@pytest.fixture
def stall_lapack(monkeypatch):
    """``stall_lapack("zgesdd")``: from then on, that one of scipy's LAPACK
    wrappers, as ``specvar.linalg`` calls them, reports info = 1.
    ``stall_lapack("eigh")``: that ``np.linalg`` function raises the
    ``LinAlgError`` numpy raises when its LAPACK call fails."""
    real = linalg.lapack
    names = {name: getattr(real, name) for name in dir(real) if name.startswith("z")}

    def stall(routine):
        if hasattr(np.linalg, routine):
            def failed(*args, **kwargs):
                raise np.linalg.LinAlgError(f"{routine} did not converge")

            monkeypatch.setattr(np.linalg, routine, failed)
            return

        def stalled(*args, **kwargs):
            return (*getattr(real, routine)(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(
            linalg, "lapack", types.SimpleNamespace(**{**names, routine: stalled})
        )

    return stall
