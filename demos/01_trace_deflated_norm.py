"""Tour of the scalar matrix measures: delta, triangular splits, kappa2.

delta(M) = (||M||_F^2 - |tr M|^2 / n)^(1/2) measures how far M is from a
scalar matrix; it vanishes exactly on mu*I and equals ||M||_F exactly when
tr M = 0.  The strictly-triangular mass of M never exceeds delta(M)^2, and
both quantities are invariant under unitary similarity.

Run:  python3 demos/01_trace_deflated_norm.py
"""

import numpy as np

import specvar as sv

rng = np.random.default_rng(0)

print("== delta on special matrices ==")
print("delta(2.5 I_4)          =", sv.delta(2.5 * np.eye(4)))
print("delta([[0,1],[0,0]])    =", sv.delta([[0.0, 1.0], [0.0, 0.0]]),
      " (traceless: equals ||M||_F)")
print("delta(diag(1,3))        =", sv.delta(np.diag([1.0, 3.0])),
      " (= sqrt(2))")

print()
print("== triangular split and the delta bound ==")
m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
parts = sv.split_dlu(m)
low2 = np.linalg.norm(parts.strictly_lower) ** 2
up2 = np.linalg.norm(parts.strictly_upper) ** 2
print(f"||L||_F^2 + ||U||_F^2 = {low2 + up2:.6f}")
print(f"delta(M)^2            = {sv.delta(m) ** 2:.6f}  (always >= the left side)")
recon = parts.diagonal + parts.strictly_lower + parts.strictly_upper
print("reconstruction is bitwise:", np.array_equal(recon, m))

print()
print("== unitary similarity invariance ==")
u = sv.random_unitary(5, rng)
print(f"delta(M)       = {sv.delta(m):.12f}")
print(f"delta(U* M U)  = {sv.delta(u.conj().T @ m @ u):.12f}")

print()
print("== condition number of a transform ==")
q = sv.random_conditioned(6, 50.0, rng)
print(f"kappa2(Q) for a generated kappa=50 transform: {sv.kappa2(q):.6f}")
print(f"kappa2 of a unitary:                          "
      f"{sv.kappa2(sv.random_unitary(6, rng)):.12f}")
