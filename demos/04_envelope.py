"""Jordan-structured instances and the scaled-deviation envelope phi(eps).

An instance is prescribed data: blocks (eigenvalue, size), a transform Q,
and a perturbation E.  The per-block scaling T(eps) shrinks the Jordan
superdiagonal to eps, and

    || T^-1 Q^-1 (A+E) Q T - Lambda ||_F^2  <=  phi(eps)

for every eps in (0, 1].  Each bound in the package is phi evaluated at a
cleverly chosen eps; optimal_epsilon returns the exact minimizer.

Run:  python3 demos/04_envelope.py
"""

import numpy as np

import specvar as sv

rng = np.random.default_rng(3)

q = sv.random_conditioned(5, 10.0, rng)
spec = sv.make_jordan_spec([(1.0, 3), (2.0 - 1j, 2)], q)
print(f"instance: n={spec.n}, p={spec.p} blocks, largest block m={spec.m}")

g = sv.complex_gaussian(5, 5, rng)
inst = sv.make_instance(spec, g * (0.4 / np.linalg.norm(g)))
print(f"||E||_F = {inst.norm_e:.4f}, ||E_Q||_F = {inst.norm_eq:.4f}, "
      f"delta(E_Q) = {inst.delta_eq:.4f}")
print(f"||E_Q||_F majorant (rank/kappa2 based): {sv.eq_norm_majorant(inst):.4f}")

print()
print("== the scaling matrix and the shrunken superdiagonal ==")
print("T(0.5) diagonal:", np.real(np.diag(sv.scaling_matrix(spec, 0.5))))
t = np.real(np.diag(sv.scaling_matrix(spec, 0.5)))
om = np.real(np.diag(sv.jordan_matrix(spec) * (t[None, :] / t[:, None]), k=1))
print("superdiagonal of T^-1 J T (Omega, in-block entries eps):", om)
print(f"||Omega||_F^2 = {np.sum(om ** 2):.4f} = (n-p) eps^2 = "
      f"{(spec.n - spec.p) * 0.25:.4f}")

print()
print("== the envelope dominates the true scaled deviation ==")
eps_values = np.array([0.0625, 0.25, 0.5, 0.75, 1.0])
margins = sv.envelope_margins(inst, eps_values)  # every eps in one pass
print(f"{'eps':>8s} {'phi(eps)':>14s} {'margin':>14s} {'margin/phi':>12s}")
for eps, value, margin in zip(eps_values, margins["phi"], margins["envelope_margin"]):
    print(f"{eps:8.4f} {value:14.6f} {margin:14.6f} {margin / value:12.2e}")

print()
print("== the exact minimizer of phi ==")
eps_star = sv.optimal_epsilon(inst)
grid = np.linspace(1e-3, 1.0, 2000)
grid_best = min(sv.phi(inst, float(e)) for e in grid)
print(f"eps* = {eps_star:.6f}")
print(f"phi(eps*) = {sv.phi(inst, eps_star):.6f} vs best of a 2000-point grid "
      f"{grid_best:.6f}")

print()
print("== the three elementwise estimates behind the envelope ==")
for k in (1, 4):
    print(f"eps={eps_values[k]}: scaled-norm margin {margins['scaled_norm_margin'][k]:.3e}, "
          f"cross-term margin {margins['cross_term_margin'][k]:.3e}, "
          f"superdiagonal identity error {margins['superdiag_norm_error'][k]:.3e}")
