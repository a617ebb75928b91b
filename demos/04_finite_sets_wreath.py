"""
Finite sets: wreath products from fiber profiles
================================================

A function between finite sets is determined up to relabeling by its fiber
profile (k_0, ..., k_n): how many target points have 0, 1, ..., n
preimages.  Its stabilizer is the product of wreath products
S_i wr S_{k_i}, pictured by a height-2 tree.  The closed form is verified
against the generic orbit engine on the skeleton of small sets.
"""

from cdiag.finset import (enumerate_profiles, level1_closed_form,
                          oracle_diff_finset, profile_of)

# a function from 12 points onto 4 points with all fibers of size 3
values = tuple(i // 3 for i in range(12))
p = profile_of(values, 4)
print(f"profile {p.k}")
print(f"tree    {p.tree_display()}")
print(f"group   {p.group_expr().text()} of order {p.group_order()}")

# another shape of 12 -> 4: two fibers of size 2 and two of size 4
p2 = [q for q in enumerate_profiles(12, 4) if q.k[:5] == (0, 0, 2, 0, 2)][0]
print(f"\nprofile {p2.k[:5]}...: {p2.tree_display()} has group "
      f"{p2.group_expr().text()} of order {p2.group_order()}")

# all components of functions from a 4-set to a 3-set
print("\ncomponents for 4 -> 3:")
for c in level1_closed_form(4, 3, "all"):
    print(f"  {c.extra['tree']:>24s}  {c.group_display():>28s}  "
          f"order {c.group_order:>3d}  class size {c.orbit_size}")

# the brute-force cross-check, including injective and surjective variants
for variant in ("all", "inj", "surj"):
    print(oracle_diff_finset(4, variant).summary())
