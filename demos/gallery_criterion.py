"""The cubic example family u = a x + a y + x y - c1 x^3 - c2 y^3: critical
points of the boundary mean curvature, the criterion vector, and the sweep
through the pole of 1 - 15 a^4 + 2 a^6 where the verdict flips."""

import numpy as np

from hemifol import graph_surface as gs

print("c1 = c2 making the origin a critical point of H:")
for a in (0.0, 0.1, 0.3, 0.5):
    p = gs.gallery_params(a)
    print(f"  a = {a}: c = {p.c1:+.12f}")

print("\nCurvature data at the origin (a = 0.3):")
surface = gs.gallery_surface(0.3)
data = gs.find_critical_point(surface, (0.01, -0.01))
print(f"  critical point: {data.point}")
print(f"  H = {data.H:+.12f}, K = {data.K:+.12f}")
print(f"  hessian of H:\n{data.hessH}")
print(f"  grad K: {data.gradK}")

print("\n|v0| = |hessH^{-1} grad K|: matrix solve vs the closed form")
print("  2a(1+a^2) sqrt(2(1+2a^2)) / |1 - 15a^4 + 2a^6|:")
for a in (0.1, 0.3, 0.45, 0.5):
    d = gs.curvature_at(gs.gallery_surface(a), 0.0, 0.0)
    solved = float(np.linalg.norm(np.linalg.solve(d.hessH, d.gradK)))
    closed = gs.gallery_v0_norm(a)
    print(f"  a = {a}: solve {solved:.12f}, closed {closed:.12f}")

xi = gs.gallery_root()
print(f"\nThe polynomial 1 - 15 a^4 + 2 a^6 vanishes at xi = {xi:.12f}:")
print(f"  residual {abs(1 - 15 * xi ** 4 + 2 * xi ** 6):.2e}; "
      f"|v0| blows up as a -> xi, so both verdicts occur:")

for a in (0.0, 0.3, 0.45, 0.51):
    s = gs.gallery_surface(a)
    d = gs.curvature_at(s, 0.0, 0.0)
    for case in ("willmore", "cmc"):
        v = gs.foliation_criterion(d, case)
        print(f"  a = {a:4} {case:9}: bracket [{v.v0_norm_lower:9.4f}, "
              f"{v.v0_norm_upper:9.4f}]  ->  {v.verdict}")
