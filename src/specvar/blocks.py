"""Unitary block structure: the maximal block count s(M) and its witness.

s(M) is the largest s such that U* M U = diag(M_1, ..., M_s) for some
unitary U.  It equals n exactly when M is normal and 1 when M is unitarily
irreducible.  There is no closed-form procedure, so we use the standard
construction for the *-algebra generated by {M, M*}, solved inside the
eigenspaces of one of its Hermitian elements (Murota, Kanno, Kojima &
Kojima 2010; Maehara & Murota 2010, 2011):

1. draw a seeded Hermitian element H = a(M + M*) + i b(M - M*) of the
   algebra, take H = V diag(w) V* and cluster w.  Every element X of the
   commutant {X : MX = XM and M*X = XM*} commutes with H, so it has the
   form X = V blockdiag(Y_1, ..., Y_c) V* with one block per cluster;
2. line up repeated blocks: in a basis that splits M into A (x) I_k, a
   cluster of H from A spans x (x) R for a unitary R, so V_j* M V_i is a
   scalar times R_j* R_i (Schur's lemma).  Each multi-column cluster turns
   by the polar factor of its strongest link to one already turned (for a
   simple H nothing turns).  Unless clusters of different sizes couple or
   that leaves coupling between copies (column p of each cluster is copy
   p), step 4 merges the columns into the finest split;
3. otherwise, or if that split fails the check below, solve for the
   commutant in the form of step 1: the null space of X -> (MX - XM,
   M*X - XM*), a 2n^2 x K operator with K = sum k_c^2 unknowns (n^2 when
   H is scalar), read off the SVD of its K x K QR factor R.  One random
   Hermitian element of it has, with probability one, the finest
   M-reducing subspaces as eigenspaces;
4. order the eigenvectors by cluster and merge the groups that still
   couple in U* M U: the connected components of the coupling graph,
   repeated until no merged group couples to another.  It ends at once
   with one block when the first group couples to every other or all
   groups form one component, and after a pass that merges as soon as
   the off-block residual r of U* M U leaves no pair of groups coupled;
   the check below reads that r.

Either route keeps its split only if the off-block residual r of U* M U is
within the null-space cutoff tol ||M||_2 (each unit X in the span of the
block projectors has ||(MX - XM, M*X - XM*)||_F <= 2r); where the drawn
element's split fails it, M is one block (s = 1), always a valid witness.
So, at that cutoff, s errs only toward 1.

Degenerate inputs (diag(B, B), normal matrices with repeated eigenvalues,
scalars) stop at step 2.  Every draw is fully determined by the seed: H's
weights (a, b), cached per seed, on stream [seed, 3], the commutant
element on [seed, 0].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DimensionError, EigensolverError, SizeLimitError
from .linalg import as_matrix, singular_values

# The commutant operator has 2 n^2 K entries for K ansatz unknowns; refuse
# past 2 * 40^4 (the full operator at n = 40, ~80 MB): honest rejection
# beats silent crawling.  This also caps K at 40^2.
COMMUTANT_MAX_SIZE = 40

DEFAULT_TOL = 1e-8         # null-space cutoff, relative to 2 ||M||_2
DEFAULT_CLUSTER_GAP = 1e-6  # eigenvalue gap threshold, relative to ||H||_2
DEFAULT_BLOCK_TOL = 1e-8   # off-block coupling threshold, relative to ||M||_F


@dataclass(frozen=True, eq=False)
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
    given ``sizes``: the right singular vectors of the operator's
    triangular QR factor R span it.  The ansatz must contain the
    commutant, as it does when the groups are eigenspaces of a Hermitian
    element of the *-algebra; the default, V = I with one group, is the
    whole matrix space.  Singular values <= tol * 2 ||M||_2, a bound on the
    largest singular value of X -> MX - XM, count as zero, so the cutoff
    does not depend on the ansatz.  Always nonempty (contains the
    identity).  A LAPACK failure raises ``EigensolverError``.
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
    # the unknowns are the entries (p, q) of the diagonal blocks of Y, block
    # by block, row by row
    label = np.repeat(np.arange(len(sizes)), sizes)
    p, q = np.nonzero(label[:, None] == label)
    k = p.size
    if n * n * k > COMMUTANT_MAX_SIZE**4:
        raise SizeLimitError(
            f"commutant null space is that of a {2 * n * n} x {k} "
            f"operator; it exceeds the cap of {2 * COMMUTANT_MAX_SIZE**4} "
            f"entries (n = {COMMUTANT_MAX_SIZE} with no restriction)"
        )
    b = v.conj().T @ m @ v
    unknown = np.arange(k)
    # one operator column (MX - XM, M*X - XM*) per unknown, in Fortran order
    op = np.zeros((k, 2, n, n), dtype=np.complex128)
    for part, c in enumerate((b, b.conj().T)):
        # C E_pq - E_pq C: column p of C in column q, minus row q of C in row p
        op[unknown, part, :, q] = c[:, p].T
        op[unknown, part, p, :] -= c[q, :]
    # zgesdd itself goes through R for 2n^2 >= 17/9 K (always), so the SVD of
    # numpy's R gives the thin SVD's sigma and V* bit for bit, without Q U_R
    try:
        r = np.linalg.qr(op.reshape(k, 2 * n * n).T, mode="r")
        sigma, vh = np.linalg.svd(r)[1:]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"commutant null space failed: {exc}") from exc
    cutoff = tol * 2.0 * singular_values(m)[0]
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


def _offblock(block_sizes) -> np.ndarray:
    """The mask of the entries outside the consecutive diagonal blocks of
    the given sizes: the pairs of rows and columns with different block
    labels."""
    label = np.repeat(np.arange(len(block_sizes)), block_sizes)
    return label[:, None] != label


def offblock_residual(m, u, block_sizes) -> float:
    """||offblock(U* M U)||_F: coupling outside the prescribed diagonal
    blocks, whose sizes must sum to the order of M."""
    m = as_matrix(m, square=True)
    u = as_matrix(u, square=True)
    b = u.conj().T @ m @ u
    if sum(block_sizes) != b.shape[0]:
        raise DimensionError(f"blocks {list(block_sizes)} for n={b.shape[0]}")
    return float(np.linalg.norm(b[_offblock(block_sizes)]))


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


def _merge_coupled(m, u, sizes, block_tol) -> tuple[BlockDecomposition, float | None]:
    """Merge the column groups of U that couple in U* M U (both off-diagonal
    blocks together) beyond block_tol * ||M||_F, by connected components:
    the decomposition and the off-block residual r of its U* M U where the
    merge stopped on it, else None.

    A merged group can couple to a third above the threshold although each
    part stays below it, so merging repeats until nothing changes.  After
    a pass that merges, r <= thresh (1 - 1e-6) ends it: each pair of groups
    couples by at most r, and the margin is far above the rounding between
    those pair sums and r.  Merged groups are made contiguous by column
    permutation (order of first member).
    """
    thresh = block_tol * (float(np.linalg.norm(m)) or 1.0)
    power = np.abs(u.conj().T @ m @ u) ** 2
    sizes = np.asarray(sizes)
    while sizes.size > 1:
        w = power  # the group couplings while every group is one column
        if sizes.size < len(power):
            starts = np.cumsum(sizes) - sizes
            w = np.add.reduceat(np.add.reduceat(power, starts, axis=0), starts, axis=1)
        adjacency = np.sqrt(w + w.T) > thresh
        if adjacency[0, 1:].all():  # connected: one block, order kept
            return BlockDecomposition(u=u, block_sizes=(u.shape[1],), s=1), None
        label = _components(adjacency)
        if not label.any():  # one component: the stable sort keeps the order
            return BlockDecomposition(u=u, block_sizes=(u.shape[1],), s=1), None
        firsts = np.unique(label)
        if firsts.size == sizes.size:
            break
        cols = np.argsort(np.repeat(label, sizes), kind="stable")
        u = u[:, cols]
        power = power[np.ix_(cols, cols)]
        sizes = np.bincount(label, weights=sizes)[firsts].astype(int)
        r = float(np.sqrt(np.sum(power[_offblock(sizes)])))
        if r <= thresh * (1.0 - 1e-6):
            return BlockDecomposition(u=u, block_sizes=tuple(sizes.tolist()), s=sizes.size), r
    return BlockDecomposition(u=u, block_sizes=tuple(sizes.tolist()), s=sizes.size), None


def _align_copies(m, v, sizes, block_tol):
    """V with each multi-column eigenspace of H turned so that the copies of
    a repeated block line up (step 2 above), or None where a check declines,
    each against block_tol ||M||_F.  The links form a maximum spanning forest
    of the coupling graph, summed both ways as in _merge_coupled; each uses
    the larger of V_j* M V_i and (V_i* M V_j)*.  Kept only if the coupling
    between copies, summed, is within the cutoff: no merge then joins two
    copies, so every group's H has a simple spectrum and the group is
    irreducible."""
    sizes = np.asarray(sizes)
    multi = np.flatnonzero(sizes > 1).tolist()
    if not multi:
        return v
    thresh = block_tol * (float(np.linalg.norm(m)) or 1.0)
    starts = np.cumsum(sizes) - sizes
    cols = [slice(lo, lo + k) for lo, k in zip(starts.tolist(), sizes.tolist())]
    b = v.conj().T @ m @ v
    # ||V_j* M V_i||_F^2, and in w summed both ways as _merge_coupled sums them
    flow = np.add.reduceat(np.add.reduceat(np.abs(b) ** 2, starts, axis=0), starts, axis=1)
    w = flow + flow.T
    if w[sizes[:, None] != sizes].max(initial=0.0) > thresh**2:
        return None
    # a maximum spanning forest (Prim's), each linked eigenspace after its parent
    w, flow = w.tolist(), flow.tolist()
    link, parent, tree = dict.fromkeys(multi, 0.0), {}, []
    while link:
        j = max(link, key=link.get)
        if link.pop(j) > thresh**2:
            tree.append((j, parent[j]))
        for i in link:
            if w[j][i] > link[i]:
                link[i], parent[i] = w[j][i], j
    r = np.eye(v.shape[1], dtype=np.complex128)
    for k in {sizes[j] for j, _ in tree}:  # one stacked SVD per size
        links = [(j, i) for j, i in tree if sizes[j] == k]
        t = np.array([b[cols[i], cols[j]].conj().T if flow[i][j] > flow[j][i]
                      else b[cols[j], cols[i]] for j, i in links])
        try:
            x, _, yh = np.linalg.svd(t)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"copy transport failed: {exc}") from exc
        for (j, _), polar in zip(links, x @ yh):
            r[cols[j], cols[j]] = polar
    for j, i in tree:  # parents first; a root's block stays I
        r[cols[j], cols[j]] = r[cols[j], cols[j]] @ r[cols[i], cols[i]]
    # column p of every size-k eigenspace is copy k n + p (all size-1 ones, n)
    copy = np.repeat(sizes * v.shape[1] - starts, sizes) + np.arange(v.shape[1])
    c = r.conj().T @ b @ r  # links outside the forest included
    return None if np.sum(np.abs(c[copy[:, None] != copy]) ** 2) > thresh**2 else v @ r


def _eigh(h):
    """``np.linalg.eigh``, its non-convergence raised as ``EigensolverError``."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration failed: {exc}") from exc


def _witnessed(m, dec, r, tol) -> bool:
    """True iff one block, or the split's off-block residual r is within
    tol ||M||_2; its lower bound tol ||M||_F / sqrt(n), less a rounding
    margin, is tried first, so the SVD behind ||M||_2 runs only if it fails.
    r is the one the merge handed over, computed here where it is None."""
    if dec.s == 1:
        return True
    if r is None:
        r = offblock_residual(m, dec.u, dec.block_sizes)
    cheap = tol * (1.0 - 1e-6) * np.linalg.norm(m) / np.sqrt(m.shape[0])
    return r <= cheap or r <= tol * singular_values(m)[0]


@lru_cache(maxsize=64)
def _h_weights(seed: int) -> tuple[float, float]:
    """The weights (a, b) of H = a(M + M*) + i b(M - M*), from stream
    [seed, 3]; stream [seed, 0] belongs to the commutant draw."""
    a, b = np.random.default_rng([seed, 3]).standard_normal(2)
    return float(a), float(b)


def s_number(m, tol: float = DEFAULT_TOL, seed: int = 0) -> BlockDecomposition:
    """Maximal unitary block-diagonalization of M with its witness U.

    The witness is made of the eigenvectors of a seeded Hermitian element
    H of the *-algebra, copies of a repeated block lined up and coupled
    columns merged, or else of one element of the commutant of {M, M*}
    drawn from stream [seed, 0] (see the module docstring).  A split is
    kept only if its off-block residual is at most tol ||M||_2; where the
    drawn element's split fails that, M is one block (s = 1).

    s is a tolerance-dependent quantity: the reported value is for the
    null-space cutoff ``tol`` (on both routes) and the fixed
    :data:`DEFAULT_CLUSTER_GAP` and :data:`DEFAULT_BLOCK_TOL`, which matters
    for matrices that are merely close to block-diagonalizable.
    """
    m = as_matrix(m, square=True)
    n = m.shape[0]
    a, b = _h_weights(seed)
    ma = m.conj().T
    w, v = _eigh(a * (m + ma) + 1j * b * (m - ma))
    clusters = _cluster_sizes(w, DEFAULT_CLUSTER_GAP)
    u = _align_copies(m, v, clusters, DEFAULT_BLOCK_TOL)
    if u is not None:
        # the copies couple only among themselves: nothing random to draw
        dec, r = _merge_coupled(m, u, [1] * n, DEFAULT_BLOCK_TOL)
        if _witnessed(m, dec, r, tol):
            return dec
    basis = commutant_basis(m, tol, v=v, sizes=clusters)
    gamma = np.random.default_rng([seed, 0]).standard_normal(len(basis))
    h = np.zeros((n, n), dtype=np.complex128)
    for g, x in zip(gamma, basis):
        h += g * (x + x.conj().T) / 2.0
    w, v = _eigh(h)
    # eigh returns ascending eigenvalues, so clusters are already contiguous
    dec, r = _merge_coupled(m, v, _cluster_sizes(w, DEFAULT_CLUSTER_GAP), DEFAULT_BLOCK_TOL)
    return dec if _witnessed(m, dec, r, tol) else BlockDecomposition(u=v, block_sizes=(n,), s=1)
