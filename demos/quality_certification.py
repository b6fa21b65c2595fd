"""Mesh-quality certification across a refinement family.

Convergence of the surface FEM rests on geometric conditions: triangles
must stay uniformly shape regular, vertices must stay close to the
smooth surface, and face normals must approach the surface normals.
The quality certificate measures, per mesh,

* kappa_min: worst inradius / longest-edge ratio (shape regularity),
* K_max: worst circumradius / longest-edge ratio,
* max_dist: largest quadrature-point distance to the surface,
* max_normal_angle: largest angle between face and surface normals,

and across a family fits the decay exponents gamma (distance ~ h^gamma)
and epsilon (angle ~ h^epsilon).  The summary sigma = min(gamma,
2 epsilon) should stay at or above 3/2 for the error analysis to apply;
inscribed icospheres deliver gamma near 2 and epsilon near 1.

Run:  python3 demos/quality_certification.py
"""

from biharm import LevelRecord, fit_rates, gen_icosphere, measure, sphere_case
from biharm.analysis import SIGMA_THRESHOLD

case = sphere_case(1.0, 2, 0)
records = []
print("inscribed icospheres against the unit sphere")
print(f"{'level':>5} {'h':>9} {'kappa_min':>10} {'max_dist':>11} "
      f"{'max_angle':>11}")
for level in range(5):
    r = LevelRecord("sphere", level, **measure(gen_icosphere(level), case))
    records.append(r)
    print(f"{level:5d} {r.h:9.4f} {r.kappa_min:10.4f} {r.max_dist:11.3e} "
          f"{r.max_normal_angle:11.3e}")

report = fit_rates(records)
sigma = report.sigma_estimate
print(f"\ngamma (distance decay)   {report.rates['gamma'].slope:5.2f}")
print(f"epsilon (normal decay)   {report.rates['epsilon'].slope:5.2f}")
print(f"sigma = min(gamma, 2 epsilon) = {sigma:.2f}  "
      f"({'ok' if sigma >= SIGMA_THRESHOLD else 'below threshold'})")
print("\nkappa_min settles near 0.255: subdivision does not degrade the")
print("icosahedron's shape regularity, and the inscribed vertices give")
print("quadratic distance decay for free.")
