# Sanity checks behind the simplex argument, run at demo scale.
# The full corpus lives in `isodist check ...`; this is the same machinery
# with smaller sample counts.

import numpy as np

from isodist import (average_distance_experiment, cutoff_gradient_check,
                     exp_tail_check, t_map_lipschitz_check, transfer_map_check)
from isodist.rng import generate

SEED = 11

# T(x) = x / ||x||_1 maps exponential clouds onto the simplex; its Jacobian
# operator norm stays below (1 + sqrt(n) ||T||_2) / ||x||_1
pts = generate(SEED, "demo-lip", 2000, lambda g, m: g.standard_exponential((m, 8)))
lip = t_map_lipschitz_check(pts)
print(f"t_map Lipschitz: ok={lip.ok} over {lip.count} points, "
      f"max excess {lip.max_excess:.2e}")

# the radial cut-offs are 1 near the origin, 0 far away, with gradient
# bounds c1 sqrt(n) and c2/sqrt(n)
u = generate(SEED, "demo-cut", 2000, lambda g, m: g.standard_exponential((m, 8)))
u /= np.linalg.norm(u, axis=1, keepdims=True)
r = 10.0 ** generate(SEED, "demo-rad", 2000,
                     lambda g, m: g.uniform(-1.5, 1.1, (m, 1)))
cut = cutoff_gradient_check(r * u, 1.0, 1.0)
print(f"cutoffs: ok={cut.ok}, {cut.plateau_violations} plateau and "
      f"{cut.gradient_violations} gradient violations, "
      f"{cut.skipped_near_kink} kink points skipped")

# sums of n exponentials rarely fall below alpha*n when alpha < 1
chk = exp_tail_check(10, 0.3, 50_000, seed=SEED)
print(f"exp tail n=10 alpha=0.3: mc {chk.mc.estimate:.2e} "
      f"erlang {chk.erlang:.2e} <= bound {chk.bound:.2e}: {chk.ok}")

# pushing a gaussian cloud through phi coordinatewise gives uniform cube
# coordinates without expanding any distance
tr = transfer_map_check(6, 20_000, seed=SEED)
print(f"transfer map: min KS p <= {tr.min_ks_pvalue:.3f} (Massart), "
      f"max stretch {tr.max_direction_ratio:.6f}")

# two random points of the unit cube are ~sqrt(n/6) apart on average,
# far beyond the dimension-free bound for eps-subsets
res = average_distance_experiment(50, 50_000, seed=SEED)
print(f"average pair distance at n=50: {res.mean_distance.estimate:.4f} "
      f">= {res.lower_bound:.4f}")
