"""Weyl functions three ways.

The same function is produced by (a) backward integration of the solver,
(b) the pole/weight partial-fraction series with the closed-form tail, and
(c) the Moebius reduction from the two-polynomial variant.  For the zero
potential it also has a closed form, used here as the reference.
"""
import numpy as np

from isturm import (ModelData, Polynomial, ProblemL, SigmaZero, eval_partial_fraction,
                    forward_spectral_data, reduce_weyl, weyl_M, weyl_M1)

prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([0]))
lam = -1.0

direct = weyl_M(prob, lam, n_x=1024)
closed = np.cos(1j * np.pi) / (1j * np.sin(1j * np.pi))  # cot(rho pi)/rho at rho^2 = -1
print(f"Neumann Weyl function at lambda = {lam}:")
print(f"  backward integration : {direct:.10f}")
print(f"  closed form          : {closed.real:.10f}  (= -coth(pi))")

sd = forward_spectral_data(prob, 30, n_x=1024)
for K_tail in (100, 1000, 10000):
    series = eval_partial_fraction(sd, ModelData(0), lam, K_tail)
    print(f"  partial fractions, tail to {K_tail:>6}: {series.real:.10f} "
          f"(err {abs(series - direct):.1e})")

print("\nMoebius reduction with p1 = lambda, p2 = 1:")
p1, p2 = Polynomial([0, 1]), Polynomial([1])
m1_fn = lambda z: weyl_M1(prob, p1, p2, z, n_x=1024)
for z in (-1.0, -4.0, 2.5 + 1j):
    reduced = reduce_weyl(m1_fn, p1, p2, z)
    print(f"  lambda = {z}: p1 M1/(1 + p2 M1) = {reduced:.8f}, "
          f"direct M = {weyl_M(prob, z, 1024):.8f}")
