"""Forward spectra for three boundary conditions.

Computes eigenvalues and weight numbers for the reference problem (boundary
polynomial lambda^M1), the Neumann problem and a Robin problem, and shows how
fast sqrt(lambda_n) approaches its asymptotic line n - M1 - 1 and the weight
numbers approach 2/pi.
"""
import numpy as np

from isturm import (Polynomial, ProblemL, SigmaZero, forward_spectral_data)

K = 12

problems = {
    "reference (r1 = lambda, r2 = 0)": ProblemL(SigmaZero(), Polynomial([0, 1]), Polynomial([0])),
    "Neumann   (r1 = 1, r2 = 0)": ProblemL(SigmaZero(), Polynomial([1]), Polynomial([0])),
    "Robin     (r1 = 1, r2 = 1)": ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1])),
}

for name, prob in problems.items():
    sd = forward_spectral_data(prob, K, n_x=1024)
    print(f"\n{name}   [M1 = {prob.m1}]")
    print(f"  {'n':>3} {'lambda_n':>14} {'mult':>4} {'alpha_n':>12} {'rho_n-(n-M1-1)':>16}")
    mult = np.repeat(sd.sizes, sd.sizes)  # the multiplicity of each entry
    for n, (lam, rho, m, alpha) in enumerate(zip(sd.lam, sd.rho, mult, sd.alpha), 1):
        kappa = rho - (n - prob.m1 - 1)
        print(f"  {n:>3} {lam.real:>14.8f} {m:>4} {alpha.real:>12.8f} {kappa.real:>16.3e}")
    print(f"  2/pi = {2/np.pi:.8f}: the weight numbers settle on it like 1/n^2.")
