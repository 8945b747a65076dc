"""Walk through the catalog: all four families, both methods, full reports.

Each case is a quotient (C1 x C2)/G of a product of curves by a free
diagonal action of an abelian group G, with p_g = q = 0.  The library
computes H_1 two independent ways and derives the rest of the homology.
"""

from isoprod import builtin_cases, full_homology, surface_invariants
from isoprod.cli import compute

for case in builtin_cases():
    print(f"=== {case.label} ===")
    print(f"k = {case.k}, branch points: n = {case.n}, m = {case.m}, "
          f"family dimension {case.family_dim}")
    print("phi:", ", ".join(f"a{i} -> {img}" for i, img in enumerate(case.phi.images, 1)))
    print("psi:", ", ".join(f"b{j} -> {img}" for j, img in enumerate(case.psi.images, 1)))

    report = compute(case)
    if not report.agree:
        raise SystemExit(f"the two methods disagree on {case.label}: {report.h1}")
    chi_top, genera = surface_invariants(case)
    print(f"H_1 by the cocycle method: {report.h1['paper']}")
    print(f"H_1 by the rewriting oracle: {report.h1['oracle']}")
    print(f"curve genera {genera}, chi_top = {chi_top}")
    print("graded homology:")
    for degree, group in enumerate(full_homology(report.h1["paper"])):
        print(f"  H_{degree} = {group}")
    print()
