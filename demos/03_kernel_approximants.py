"""Polynomial approximants of the reproducing kernel with certificates.

A degree-j polynomial approximates 1/(1 - lambda) on the lune swept by the
normalized pairing, with the weighted error j^r |1 - lambda|^(1+r) bounded
by a measured constant; squaring and rescaling gives a kernel approximant
polynomial in z.  The certificate sweep shows the constants flat across
degrees, and the far/near validation measures the kernel-level constants on
real point pairs.
"""

import numpy as np

from hsconvex import ball, build_Kglob, build_T, lune_of, validate_Kglob
from hsconvex.dzyadyk import Lune

domain = ball()
lune = lune_of(domain, np.array([1.0, 0.0], complex), R=1.05)
print(f"lune at e1: chord angle t = {lune.t:.4f} (pi/2), R = {lune.R}")

print("\ncertificate sweep (rate r = 0.5):")
for j in (4, 8, 16, 32):
    T = build_T(j, 0.5, lune)
    print(f"  j = {j:2d}: C1 = {T.cert['C1']:.4f}, C2 = {T.cert['C2']:.4f}")

print("\nkernel-level constants on sampled pairs:")
for k in (8, 16, 32, 64):
    kg = build_Kglob(domain, k, r=0.5)
    rep = validate_Kglob(domain, kg, seed=11)
    print(f"  k = {k:2d}: C_far = {rep['C_far']:.3f} "
          f"({rep['n_far']} far pairs), C_near = {rep['C_near']:.4f} "
          f"({rep['n_near']} near pairs)")
