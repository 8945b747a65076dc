"""Define a case from scratch, validate it, compute, and serialize it.

The algebra never needs the action to be free: freeness is what makes the
quotient a smooth surface, but the kernel abelianization is defined for
any valid pair of generating systems.
"""

import json

from isoprod import FinAbGroup, GeneratingSystem, validate_generating_system
from isoprod.cli import case_file_json, case_from_file, case_to_file, compute, parse_case_file
from isoprod.families import FamilyCase

G = FinAbGroup((3, 3))
e1, e2 = G.basis()

# A valid system: images of order 3 that sum to zero and generate G.
phi = GeneratingSystem(G, (e1, e2, -e1 - e2), 3)
# Pairing phi with itself is valid but obviously not free.
psi = phi

case = FamilyCase(id=None, label="demo case", group=G, k=3, phi=phi, psi=psi)
print("phi valid:", validate_generating_system(phi).ok)
report = compute(case)
print("action free:", report.action_free)
print("both methods still agree:", report.agree, report.h1["paper"])
print()

# A genuinely broken system is reported, not crashed on.
bad = GeneratingSystem(G, (e1, e1, e1), 3)
print("broken system:", validate_generating_system(bad))
print()

# Round-trip the case through the JSON file format the CLI consumes.
text = case_file_json(case_to_file(case))
print("case file document:")
print(text)
rebuilt = case_from_file(parse_case_file(text))
print("round-trip preserves the data:",
      rebuilt.phi.images == case.phi.images and rebuilt.psi.images == case.psi.images)
print()
print("the same file works with the command line:")
print("  isoprod compute demo.json            # warns: action not free")
print(json.dumps({"hint": "see `isoprod --help` for list/compute/verify/export"}))
