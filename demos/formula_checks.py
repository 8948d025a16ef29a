"""
Closed forms against the solver
===============================

Each ring family has a per-k prediction: an exact value, an interval,
or out-of-range.  Suites run a grid of instances and compare with the
exact solver; the report counts MATCH / WITHIN_BOUNDS / MISMATCH rows.
"""

from zdalliance import (SuiteConfig, build_graph, build_ring,
                        check_cardinality_bounds, predict_prime_power,
                        predict_z2_local, run_suite, summarize)
from zdalliance.verify import emit_report

# a single prediction: Z_{3^4} at k = 0
print("predicted gamma_0(Z81):", predict_prime_power(3, 4, 0).value)

# near the edge of the stated range predictions turn into intervals
p = predict_z2_local(27, 9, False, -10)
print(f"Z2 x Z27 at k=-10: between {p.lower} and {p.upper}")

# run a family suite and render the report
records = run_suite(SuiteConfig(suite="zpn"))
print("\nprime power suite:", summarize(records))
print()
print(emit_report(records[:4], "csv"))

# cardinality bounds: |Z(R)| against 1 + g^2 - kg over the spectrum
ring = build_ring("Z12")
rows = check_cardinality_bounds(ring, build_graph(ring))
best = min(r.predicted_hi for r in rows if r.params.startswith("check=A;"))
print(f"Z12: |Z(R)| = {rows[0].solved} <= {best} (best A_k over the spectrum)")

# local rings get the tighter pair of bounds, with equality for Z9
ring = build_ring("Z9")
rows = check_cardinality_bounds(ring, build_graph(ring))
cap = [r for r in rows if "BC-max-min" in r.params][0]
print(f"Z9: |Z(R)| = {cap.solved}, max-min bound {cap.predicted_hi}")
