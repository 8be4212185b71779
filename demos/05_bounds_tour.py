"""Every bound on one instance, checked against the true distance D2.

The baselines (Song, Li-Chen) and the envelope families UP1_*/UP2_*/UP3_*
are evaluated with their branch logic; slack = bound - D2 must be
nonnegative for every applicable bound.  For a normal original matrix the
envelope bounds collapse to the classical trace-deflated estimates.

Run:  python3 demos/05_bounds_tour.py
"""

import numpy as np

import specvar as sv

rng = np.random.default_rng(4)

# a defective instance with real eigenvalues, so all three families apply
q = sv.random_conditioned(5, 8.0, rng)
spec = sv.make_jordan_spec([(1.0, 2), (-0.5, 2), (2.0, 1)], q)
g = sv.complex_gaussian(5, 5, rng)
inst = sv.make_instance(spec, g * (0.6 / np.linalg.norm(g)))

d2 = sv.optimal_match(spec.spectrum, sv.perturbed_spectrum(inst)).d2
print(f"true D2 = {d2:.6f}   (n={spec.n}, p={spec.p}, m={spec.m}, "
      f"||E_Q||_F = {inst.norm_eq:.4f})")
print()

sval = sv.s_values(inst, mode="pessimistic")
results = sv.evaluate_bounds(inst, sval)
print(f"{'bound':10s} {'branch':18s} {'value':>12s} {'slack':>12s}")
for r in results:
    if not r.applicable:
        print(f"{r.id.name:10s} {'(inapplicable)':18s} {r.reason}")
        continue
    print(f"{r.id.name:10s} {r.branch:18s} {r.value:12.6f} {r.value - d2:12.6f}")

print()
print("== the envelope bounds sharpen the baselines ==")
flat = {r.id: r.value for r in results if r.applicable}
print(f"SONG - UP1_1   = {flat[sv.BoundId.SONG] - flat[sv.BoundId.UP1_1]:.6f}  (>= 0)")
print(f"LI_CHEN - UP2_1 = {flat[sv.BoundId.LI_CHEN] - flat[sv.BoundId.UP2_1]:.6f}  (>= 0)")

print()
print("== normal original matrix: the families collapse ==")
u = sv.random_unitary(4, rng)
nspec = sv.make_jordan_spec([(lam, 1) for lam in (1.0, 2.0, -1.0, 0.5)], u)
e = sv.complex_gaussian(4, 4, rng) * 0.1
ninst = sv.make_instance(nspec, e)
d = sv.delta(e)
reference = np.sqrt(4 * d * d + abs(np.trace(e)) ** 2 / 4)
print(f"trace-deflated reference sqrt(n delta^2 + |tr E|^2/n) = {reference:.12f}")
for r in sv.new_bounds_complex(ninst, 4, 4, 4, 4):
    if r.id.name.startswith("UP1"):
        print(f"{r.id.name}: {r.value:.12f}")

print()
print("== the scalar-perturbation reference table ==")
table = sv.example_scalar_table(4, 2, 2, 0.05,
                                sv.make_jordan_spec([(1.0, 2), (3.0, 2)],
                                                    sv.random_conditioned(4, 5.0, rng)))
print(f"D2 = {table['d2']:.12f} (expected {table['d2_expected']})")
for row in table["rows"]:
    print(f"{row['bound_id']:8s} closed form {row['closed_form']:.12f} "
          f"numeric {row['numeric']:.12f}")
