"""
Ordinals: the discrete regime
=============================

In the chain categories [m] the only isomorphisms are identities, so every
component of every level is a singleton with trivial stabilizer: level 0
has m+1 components and level 1 has (m+1)(m+2)/2.  The same holds for a
truncation of the category of finite ordered sets, where the face maps
between components carry real information even though every stabilizer is
trivial.
"""

from cdiag import fincat
from cdiag.classifying import (component_maps, is_discrete_classifying,
                               level_decomposition)

for m in range(6):
    cat = fincat.ordinal(m)
    d0 = level_decomposition(cat, 0)
    d1 = level_decomposition(cat, 1)
    print(f"[{m}]: {len(d0)} components at level 0, {len(d1)} at level 1, "
          f"formula (m+1)(m+2)/2 = {(m + 1) * (m + 2) // 2}")

# the discreteness check certifies the pattern level by level
delta2 = fincat.truncated_delta(2)
report = is_discrete_classifying(delta2, 2)
print(f"\n{delta2.name}: discrete = {report.discrete}")
for n, count, flat in report.levels:
    print(f"  level {n}: {count} components, all singleton+trivial: {flat}")

# face maps connect level-1 components to their endpoint components
ordinal1 = fincat.ordinal(1)
maps = component_maps(ordinal1, 1)
objs, mors = ([c.representative[0] for c in level_decomposition(ordinal1, n).components]
              for n in (0, 1))
print("\nface maps on [1]:")
for k, f in enumerate(mors):
    d1, d0 = maps.faces[(1, 1)][k], maps.faces[(1, 0)][k]
    print(f"  {f}: d1 -> {objs[d1]}, d0 -> {objs[d0]}")
