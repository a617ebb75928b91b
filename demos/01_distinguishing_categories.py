"""
Why the nerve is not enough
===========================

The walking arrow (two objects joined by one non-invertible morphism) and
the one-object point category have homotopy-equivalent nerves, yet they are
not equivalent categories.  The classifying-diagram levels see the
difference immediately: level 0 splits into one component per isomorphism
class of objects.
"""

from cdiag import fincat
from cdiag.classifying import level_decomposition

arrow = fincat.walking_arrow()
point = fincat.ordinal(0)


def invariants(cat):
    """Class count and automorphism-order multiset: level 0 of the diagram."""
    dec = level_decomposition(cat, 0)
    return len(dec), dec.orders()


# level 0 of each classifying diagram
for cat in (arrow, point):
    dec = level_decomposition(cat, 0)
    comps = ", ".join(f"{c.representative[0]} (order {c.group_order})"
                      for c in dec.components)
    print(f"{cat.name}: {len(dec.components)} level-0 component(s): {comps}")

# the class counts disagree, so the two cannot be equivalent
counts = (invariants(arrow)[0], invariants(point)[0])
print("class counts:", counts, "-> match:", counts[0] == counts[1])

# contrast: the interval with invertible arrows collapses to the point
interval = fincat.iso_interval()
dec = level_decomposition(interval, 0)
print(f"{interval.name}: {len(dec.components)} level-0 component(s), "
      f"sizes {[c.orbit_size for c in dec.components]}")
print("interval vs point invariants match:", invariants(interval) == invariants(point))
