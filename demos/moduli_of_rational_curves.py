"""The moduli space of stable rational curves with n marked points is the
distinct-point space of n-3 points on a line relative to three fixed points.
The dictionary is purely numerical here: boundary divisors, the nested-set
complex, its facets, and the symmetric-group orbits all reproduce the
classical counts.
"""

from wonderful import (
    count_divisors,
    f_vector,
    maximal_nested_sets,
    orbits,
    point_components,
)


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


print("n marked | m = n-3 | divisors 2^(n-1)-n-1 | facets (2n-5)!!")
for n_marked in (4, 5, 6, 7):
    m = n_marked - 3
    g = point_components(3, n=m)
    divisors = count_divisors(g)
    facets = len(maximal_nested_sets(g))
    print(
        "   %d     |    %d    |        %3d          |  %4d == %4d"
        % (n_marked, m, divisors, facets, double_factorial(2 * n_marked - 5))
    )

print("\nfull face counts of the boundary complex (a recursion, no enumeration):")
for n_marked in range(5, 13):
    g = point_components(3, n=n_marked - 3)
    print("  n=%d:" % n_marked, f_vector(g))

print("\norbits of boundary divisors under relabeling (n=5 model):")
g5 = point_components(3, n=2)
for orbit in orbits(g5, "divisors"):
    print("  representative %-11s orbit size %d" % (orbit.representative, orbit.size))
print("(the three point components are NOT permuted; only the moving labels are)")
