"""Every bound on one instance, checked against the true distance D2.

The baselines (Song, Li-Chen) and the envelope families UP1_*/UP2_*/UP3_*
are evaluated with their branch logic into one bound table, a column each
for ids, values, branches and reasons; slack = bound - D2 must be
nonnegative for every applicable bound.  For a normal original matrix the
envelope bounds collapse to the classical trace-deflated estimates.  The
same call evaluates the Jordan family on arrays of inputs at once.

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
table = sv.evaluate_bounds(inst, sval)
print(f"{'bound':10s} {'branch':18s} {'value':>12s} {'slack':>12s}")
for bid, value, branch, reason in zip(table.ids, table.values, table.branches,
                                      table.reasons):
    if reason:
        print(f"{bid:10s} {'(inapplicable)':18s} {reason}")
        continue
    print(f"{bid:10s} {branch:18s} {value:12.6f} {value - d2:12.6f}")

print()
print("== the envelope bounds sharpen the baselines ==")
flat = dict(zip(table.ids, table.values))
print(f"SONG - UP1_1   = {flat['SONG'] - flat['UP1_1']:.6f}  (>= 0)")
print(f"LI_CHEN - UP2_1 = {flat['LI_CHEN'] - flat['UP2_1']:.6f}  (>= 0)")

print()
print("== normal original matrix: the families collapse ==")
u = sv.random_unitary(4, rng)
nspec = sv.make_jordan_spec([(lam, 1) for lam in (1.0, 2.0, -1.0, 0.5)], u)
e = sv.complex_gaussian(4, 4, rng) * 0.1
ninst = sv.make_instance(nspec, e)
d = sv.delta(e)
reference = np.sqrt(4 * d * d + abs(np.trace(e)) ** 2 / 4)
print(f"trace-deflated reference sqrt(n delta^2 + |tr E|^2/n) = {reference:.12f}")
ntable = sv.jordan_bounds(sv.BoundInputs.of(ninst), sv.s_values(ninst))
for bid, value in zip(ntable.ids, ntable.values):
    if bid.startswith("UP1"):
        print(f"{bid}: {value:.12f}")

print()
print("== one call over arrays: UP1_1 of a traceless E_Q (delta = ||E_Q||_F) ==")
norms = np.logspace(-3, 1, 5)
x = sv.BoundInputs(spec.n, spec.p, spec.m, norms, norms, np.zeros(5), True)
curve = sv.jordan_bounds(x, dict.fromkeys(("s1", "s2", "s3", "s4"), spec.n))
up1_1 = curve.ids.index("UP1_1")
for norm, value, branch in zip(norms, curve.values[up1_1], curve.branches[up1_1]):
    print(f"||E_Q||_F = {norm:8.3f}   UP1_1 = {value:10.6f}   ({branch})")

print()
print("== the scalar-perturbation reference table ==")
table = sv.example_scalar_table(sv.make_jordan_spec([(1.0, 2), (3.0, 2)],
                                                    sv.random_conditioned(4, 5.0, rng)),
                                0.05)
print(f"D2 = {table['d2']:.12f} (expected {table['d2_expected']})")
for row in table["rows"]:
    print(f"{row['bound_id']:8s} closed form {row['closed_form']:.12f} "
          f"numeric {row['numeric']:.12f}")
