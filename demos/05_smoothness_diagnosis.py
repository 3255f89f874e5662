"""The dyadic polynomial-approximation smoothness diagnostic.

Degree-2^k projections of boundary data through the kernel approximants
give error fields whose weighted dyadic sums converge exactly up to the
Hardy-Sobolev order of the function; the diagnostic fits the decay slope
and issues per-order verdicts, cross-checked against the level-norm oracle.
"""

import numpy as np

from hsconvex import ball, diagnose
from hsconvex.corpus import corpus_entries, oracle_labels

domain = ball()

print("entry              slope   verdicts (l = 1, 2, 3)      oracle (p=2)")
for entry in corpus_entries():
    rep = diagnose(domain, entry.f, p=2.0, k_range=range(1, 6),
                   l_probe=(1, 2, 3))
    if entry.family in ("polynomial", "entire"):
        oracle = ["f"] * 3
    else:
        labels = oracle_labels(domain, entry.f)
        oracle = [labels[(l, 2.0)][0] for l in (1, 2, 3)]
    slope = f"{rep.slope:7.2f}" if np.isfinite(rep.slope) else "  floor"
    verdicts = ", ".join(rep.verdicts[l][:4] for l in (1, 2, 3))
    print(f"{entry.f.label:18s} {slope}  {verdicts:28s} {'/'.join(oracle)}")
