"""Matrices with a known block-structure number s(M), for the
``s-number-scaling`` workload.

Each case hides a known unitary block structure behind a Haar unitary W,
M = W diag(B_1, ..., B_k) W*, so s(M) and the block sizes are fixed by
construction rather than by the code under test:

- ``k-blocks``: k independent complex Gaussian blocks of order 4.  Each is
  unitarily irreducible and no two are unitarily similar (both with
  probability one), so s = k and every block has size 4.
- ``jordan``: one Jordan block J_n(lambda).  Its commutant with J* is the
  scalars, so s = 1.
- ``twin``: diag(B, B) for one Gaussian block B of order n/2.  The
  commutant is M_2(C) (x) I, so a random Hermitian element has two
  eigenvalues of multiplicity n/2 each and s = 2.  This is the degenerate
  input a fast path for s(M) must hand to its fallback.

Only numpy is used, so the ground truth does not depend on specvar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASSES = ("k-blocks", "jordan", "twin")

# Orders and how many of each a round holds, per class (30 cases a round).
# The weights put the latency median inside the n = 12 group and the 95th
# percentile inside the n = 24 group (the top tenth), and keep the mean op
# short enough that a 30 s run holds over 200 ops, so that at least ten
# samples lie beyond the 95th percentile.
ORDERS = ((8, 4), (12, 3), (16, 2), (24, 1))


@dataclass(frozen=True)
class Case:
    kind: str
    matrix: np.ndarray
    s: int
    block_sizes: tuple[int, ...]


def _gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(n, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def _block_diag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    off = 0
    for b in blocks:
        k = b.shape[0]
        out[off:off + k, off:off + k] = b
        off += k
    return out


def make_case(kind: str, n: int, rng: np.random.Generator) -> Case:
    """One hidden-structure matrix of order n (n divisible by 4)."""
    if n % 4:
        raise ValueError(f"order must be divisible by 4, got {n}")
    if kind == "k-blocks":
        blocks = [_gaussian(4, rng) for _ in range(n // 4)]
    elif kind == "jordan":
        lam = complex(rng.standard_normal(), rng.standard_normal())
        blocks = [lam * np.eye(n) + np.diag(np.ones(n - 1), k=1)]
    elif kind == "twin":
        b = _gaussian(n // 2, rng)
        blocks = [b, b]
    else:
        raise ValueError(f"unknown case class '{kind}'")
    w = _haar(n, rng)
    sizes = tuple(b.shape[0] for b in blocks)
    return Case(kind, w @ _block_diag(blocks) @ w.conj().T, len(sizes), sizes)


def round_cases(seed: int, round_index: int) -> list[Case]:
    """The cases of one round: every class at every order in ORDERS.
    Deterministic in (seed, round_index)."""
    rng = np.random.default_rng([seed, round_index])
    return [
        make_case(kind, n, rng)
        for n, repeats in ORDERS
        for _ in range(repeats)
        for kind in CLASSES
    ]


def witness_residual(m: np.ndarray, u: np.ndarray, block_sizes) -> tuple[float, float]:
    """(off-block coupling of U* M U relative to ||M||_F, ||U*U - I||_F)."""
    b = u.conj().T @ m @ u
    mask = np.ones(b.shape, dtype=bool)
    off = 0
    for k in block_sizes:
        mask[off:off + k, off:off + k] = False
        off += k
    coupling = float(np.linalg.norm(b[mask])) / float(np.linalg.norm(m))
    unitarity = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])))
    return coupling, unitarity
