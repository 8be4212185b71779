"""Unitary block structure: the maximal block count s(M) and its witness.

s(M) is the largest s such that U* M U = diag(M_1, ..., M_s) for some
unitary U.  It equals n exactly when M is normal and 1 when M is unitarily
irreducible.  There is no closed-form procedure, so we use the standard
construction for the *-algebra generated by {M, M*}, solved inside the
eigenspaces of one of its Hermitian elements (Murota, Kanno, Kojima &
Kojima 2010; Maehara & Murota 2011):

1. draw a seeded Hermitian element H = a(M + M*) + i b(M - M*) of the
   algebra, take H = V diag(w) V* and cluster w.  Every element X of the
   commutant {X : MX = XM and M*X = XM*} commutes with H, so it has the
   form X = V blockdiag(Y_1, ..., Y_c) V* with one block per cluster;
2. compute an orthonormal basis of the commutant as the numerical null
   space of X -> (MX - XM, M*X - XM*) restricted to that form: a
   2n^2 x K operator with K = sum k_c^2 unknowns (K = n when H has a
   simple spectrum, K = n^2 when H is scalar -- the unrestricted case);
3. draw a random Hermitian element of the commutant; with probability
   one its eigenspaces are exactly the finest M-reducing subspaces;
4. cluster that element's eigenvalues, order the eigenvectors by cluster,
   and merge any clusters that still couple in U* M U.

The restriction in step 2 is exact for any H, so degenerate inputs
(diag(B, B), normal matrices with repeated eigenvalues, scalars) only make
the clusters, and K, larger.  Every draw is fully determined by the seed,
and three independent draws in step 3 must agree on s or an
``AmbiguityError`` is raised, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AmbiguityError, DimensionError, SizeLimitError
from .linalg import as_matrix

# The commutant operator has 2 n^2 K entries for K ansatz unknowns; refuse
# past 2 * 40^4 (the full operator at n = 40, ~80 MB): honest rejection
# beats silent crawling.  This also caps K at 40^2.
COMMUTANT_MAX_SIZE = 40

DEFAULT_TOL = 1e-8         # null-space cutoff, relative to 2 ||M||_2
DEFAULT_CLUSTER_GAP = 1e-6  # eigenvalue gap threshold, relative to ||H||_2
DEFAULT_BLOCK_TOL = 1e-8   # off-block coupling threshold, relative to ||M||_F


@dataclass(frozen=True)
class BlockDecomposition:
    """Witnessed block structure: U* M U is block diagonal with the given
    ordered block sizes; s = len(block_sizes)."""

    u: np.ndarray
    block_sizes: tuple[int, ...]
    s: int


def is_normal(m, tol: float = 1e-10) -> bool:
    """True iff ||M M* - M* M||_F <= tol * ||M||_F^2."""
    m = as_matrix(m, square=True)
    comm = m @ m.conj().T - m.conj().T @ m
    return float(np.linalg.norm(comm)) <= tol * float(np.linalg.norm(m)) ** 2


def commutant_basis(
    m, tol: float = DEFAULT_TOL, *, v=None, sizes=None
) -> list[np.ndarray]:
    """Orthonormal basis (Frobenius inner product) of
    {X : MX = XM and M*X = XM*}.

    Obtained as the numerical null space of the stacked operator
    X -> (MX - XM, M*X - XM*) over the ansatz X = V blockdiag(Y_c) V*,
    where the unitary ``v`` is cut into consecutive column groups of the
    given ``sizes``.  The ansatz must contain the commutant, as it does
    when the groups are eigenspaces of a Hermitian element of the
    *-algebra; the default, V = I with one group, is the whole matrix
    space.  Singular values <= tol * 2 ||M||_2, a bound on the largest
    singular value of X -> MX - XM, count as zero, so the cutoff does not
    depend on the ansatz.  Always nonempty (contains the identity).
    """
    m = as_matrix(m, square=True)
    n = m.shape[0]
    if v is None:
        v, sizes = np.eye(n), (n,)
    v = as_matrix(v, square=True, name="eigenvector matrix")
    if v.shape[0] != n or sum(sizes) != n:
        raise DimensionError(
            f"ansatz of order {v.shape[0]} in groups {list(sizes)} for n={n}"
        )
    # the unknowns are the entries (p, q) of the diagonal blocks of Y
    edges = np.cumsum([0, *sizes])
    groups = [np.arange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    p = np.concatenate([np.repeat(g, g.size) for g in groups])
    q = np.concatenate([np.tile(g, g.size) for g in groups])
    k = p.size
    if n * n * k > COMMUTANT_MAX_SIZE**4:
        raise SizeLimitError(
            f"commutant null space is an SVD of a {2 * n * n} x {k} "
            f"operator; it exceeds the cap of {2 * COMMUTANT_MAX_SIZE**4} "
            f"entries (n = {COMMUTANT_MAX_SIZE} with no restriction)"
        )
    b = v.conj().T @ m @ v
    unknown = np.arange(k)
    op = np.zeros((2, n, n, k), dtype=np.complex128)
    for part, c in zip(op, (b, b.conj().T)):
        # C E_pq - E_pq C: column p of C in column q, minus row q of C in row p
        part[:, q, unknown] = c[:, p]
        part[p, :, unknown] -= c[q, :]
    sigma, vh = np.linalg.svd(op.reshape(2 * n * n, k), full_matrices=False)[1:]
    cutoff = tol * 2.0 * np.linalg.norm(m, 2)
    rank = int(np.sum(sigma > cutoff))
    y = np.zeros((k - rank, n, n), dtype=np.complex128)
    y[:, p, q] = vh[rank:].conj()
    return list(v @ y @ v.conj().T)


def _cluster_sizes(w: np.ndarray, gap_tol: float) -> list[int]:
    """Cluster ascending real eigenvalues at gaps > gap_tol * max|w|."""
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale == 0.0:
        return [w.size]
    sizes, current = [], 1
    for i in range(1, w.size):
        if w[i] - w[i - 1] > gap_tol * scale:
            sizes.append(current)
            current = 1
        else:
            current += 1
    sizes.append(current)
    return sizes


def offblock_residual(m, u, block_sizes) -> float:
    """||offblock(U* M U)||_F: coupling outside the prescribed diagonal
    blocks."""
    m = as_matrix(m, square=True)
    u = as_matrix(u, square=True)
    b = u.conj().T @ m @ u
    edges = np.cumsum([0, *block_sizes])
    mask = np.ones_like(b, dtype=bool)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask[lo:hi, lo:hi] = False
    return float(np.linalg.norm(b[mask]))


def _merge_coupled(m, u, sizes, block_tol):
    """Merge clusters that still couple in U* M U beyond block_tol * ||M||_F.

    Guards against an unluckily degenerate random commutant element; merged
    groups are made contiguous by column permutation (order of first member).
    """
    m_scale = float(np.linalg.norm(m))
    thresh = block_tol * m_scale if m_scale > 0 else block_tol
    while len(sizes) > 1:
        k = len(sizes)
        edges = np.cumsum([0, *sizes])
        b = u.conj().T @ m @ u
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        coupled = False
        for i in range(k):
            for j in range(i + 1, k):
                ri, rj = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
                c = np.linalg.norm(b[ri, rj]) ** 2 + np.linalg.norm(b[rj, ri]) ** 2
                if np.sqrt(c) > thresh:
                    pi, pj = find(i), find(j)
                    if pi != pj:
                        parent[max(pi, pj)] = min(pi, pj)
                        coupled = True
        if not coupled:
            break
        groups: dict[int, list[int]] = {}
        for i in range(k):
            groups.setdefault(find(i), []).append(i)
        order = sorted(groups.values(), key=lambda g: g[0])
        cols = np.concatenate(
            [np.arange(edges[i], edges[i + 1]) for g in order for i in g]
        )
        u = u[:, cols]
        sizes = [sum(sizes[i] for i in g) for g in order]
    return u, sizes


def _decompose_once(m, basis, rng, cluster_gap, block_tol):
    n = m.shape[0]
    gamma = rng.standard_normal(len(basis))
    h = np.zeros((n, n), dtype=np.complex128)
    for g, b in zip(gamma, basis):
        h += g * (b + b.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    sizes = _cluster_sizes(w, cluster_gap)
    # eigh returns ascending eigenvalues, so clusters are already contiguous
    u, sizes = _merge_coupled(m, v, sizes, block_tol)
    return BlockDecomposition(u=u, block_sizes=tuple(sizes), s=len(sizes))


def s_number(
    m,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    *,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
    block_tol: float = DEFAULT_BLOCK_TOL,
) -> BlockDecomposition:
    """Maximal unitary block-diagonalization of M with its witness U.

    Restricts the commutant of {M, M*} to the eigenspaces of a seeded
    Hermitian element of the *-algebra, then draws a seeded random
    Hermitian element of the commutant, whose eigenspace decomposition
    attains the finest reduction (and hence the maximal block count) with
    probability one.  Three reseeded draws must agree on s; otherwise an
    ``AmbiguityError`` carrying the candidate values is raised.  s is a tolerance-dependent quantity: the reported
    value is for the given cutoffs, which matters for matrices that are
    merely close to block-diagonalizable.
    """
    m = as_matrix(m, square=True)
    # streams [seed, 0..2] belong to the three commutant draws below
    a, b = np.random.default_rng([seed, 3]).standard_normal(2)
    ma = m.conj().T
    w, v = np.linalg.eigh(a * (m + ma) + 1j * b * (m - ma))
    basis = commutant_basis(m, tol, v=v, sizes=_cluster_sizes(w, cluster_gap))
    draws = [
        _decompose_once(
            m, basis, np.random.default_rng([seed, k]), cluster_gap, block_tol
        )
        for k in range(3)
    ]
    counts = sorted({d.s for d in draws})
    if len(counts) > 1:
        raise AmbiguityError(
            f"reseeded block-structure draws disagree: s in {counts}",
            candidates=counts,
        )
    return draws[0]
