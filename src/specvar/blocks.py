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
   form X = V blockdiag(Y_1, ..., Y_c) V* with one block per cluster.
   When every cluster is a single eigenvalue (the generic case), X is
   V diag(y) V*, so the eigenvectors of H are already the finest split:
   step 4 merges them and steps 2-3 are skipped, unless the merged split
   leaves a residual coupling past the null-space cutoff of step 2;
2. otherwise compute an orthonormal basis of the commutant as the
   numerical null space of X -> (MX - XM, M*X - XM*) restricted to that
   form: a 2n^2 x K operator with K = sum k_c^2 unknowns (K = n^2 when H
   is scalar -- the unrestricted case);
3. draw a random Hermitian element of the commutant; with probability
   one its eigenspaces are exactly the finest M-reducing subspaces;
4. order the eigenvectors by cluster and merge the groups that still
   couple in U* M U: the connected components of the coupling graph,
   repeated until no merged group couples to another.

The restriction in step 2 is exact for any H, so degenerate inputs
(diag(B, B), normal matrices with repeated eigenvalues, scalars) only make
the clusters, and K, larger.  Every draw is fully determined by the seed.
Wherever step 2 runs, three independent draws in step 3 must agree on s
or an ``AmbiguityError`` is raised, so results are reproducible; a split
kept from a simple spectrum draws nothing after H and cannot raise it.
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


def _components(adjacency: np.ndarray) -> np.ndarray:
    """Label each node of a symmetric graph with the smallest node of its
    connected component, by boolean transitive closure (repeated squaring,
    with the path counts cut back to 0/1 after every float64 product)."""
    reach = adjacency | np.eye(adjacency.shape[0], dtype=bool)
    while True:
        step = reach.astype(np.float64)
        wider = (step @ step) > 0.0
        if np.array_equal(wider, reach):
            return np.argmax(reach, axis=1)
        reach = wider


def _merge_coupled(m, u, sizes, block_tol) -> BlockDecomposition:
    """Merge the column groups of U that couple in U* M U (both off-diagonal
    blocks together) beyond block_tol * ||M||_F, by connected components.

    A merged group can couple to a third above the threshold although each
    part stays below it, so merging repeats until nothing changes.  Merged
    groups are made contiguous by column permutation (order of first
    member).
    """
    thresh = block_tol * (float(np.linalg.norm(m)) or 1.0)
    power = np.abs(u.conj().T @ m @ u) ** 2
    sizes = np.asarray(sizes)
    while sizes.size > 1:
        starts = np.cumsum(sizes) - sizes
        w = np.add.reduceat(np.add.reduceat(power, starts, axis=0), starts, axis=1)
        label = _components(np.sqrt(w + w.T) > thresh)
        firsts = np.unique(label)
        if firsts.size == sizes.size:
            break
        cols = np.argsort(np.repeat(label, sizes), kind="stable")
        u = u[:, cols]
        power = power[np.ix_(cols, cols)]
        sizes = np.bincount(label, weights=sizes)[firsts].astype(int)
    return BlockDecomposition(u=u, block_sizes=tuple(sizes.tolist()), s=sizes.size)


def _decompose_once(m, basis, rng, cluster_gap, block_tol):
    n = m.shape[0]
    gamma = rng.standard_normal(len(basis))
    h = np.zeros((n, n), dtype=np.complex128)
    for g, b in zip(gamma, basis):
        h += g * (b + b.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    # eigh returns ascending eigenvalues, so clusters are already contiguous
    return _merge_coupled(m, v, _cluster_sizes(w, cluster_gap), block_tol)


def s_number(
    m,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    *,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
    block_tol: float = DEFAULT_BLOCK_TOL,
) -> BlockDecomposition:
    """Maximal unitary block-diagonalization of M with its witness U.

    When a seeded Hermitian element H of the *-algebra has a simple
    spectrum, its eigenvectors, with the coupled ones merged, are the
    witness if its off-block residual is at most tol ||M||_2.  Otherwise
    the commutant of {M, M*} is solved inside the eigenspaces of H, and a
    seeded random Hermitian element of it attains the finest reduction
    with probability one; three reseeded draws must agree on s, or an
    ``AmbiguityError`` carrying the candidates is raised.

    s is a tolerance-dependent quantity: the reported value is for the
    given cutoffs (``cluster_gap``, ``block_tol`` and ``tol`` on both
    routes), which matters for matrices that are merely close to
    block-diagonalizable.
    """
    m = as_matrix(m, square=True)
    # streams [seed, 0..2] belong to the three commutant draws below
    a, b = np.random.default_rng([seed, 3]).standard_normal(2)
    ma = m.conj().T
    w, v = np.linalg.eigh(a * (m + ma) + 1j * b * (m - ma))
    clusters = _cluster_sizes(w, cluster_gap)
    if len(clusters) == w.size:
        # every commutant element is V diag(y) V*: nothing random to draw.
        # For off-block residual r, each unit X in the span of the block
        # projectors has ||(MX - XM, M*X - XM*)||_F <= 2r: keep the split if
        # that is within the null-space cutoff tol 2||M||_2, else solve
        dec = _merge_coupled(m, v, clusters, block_tol)
        if dec.s == 1 or offblock_residual(m, dec.u, dec.block_sizes) <= (
            tol * np.linalg.norm(m, 2)
        ):
            return dec
    basis = commutant_basis(m, tol, v=v, sizes=clusters)
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
