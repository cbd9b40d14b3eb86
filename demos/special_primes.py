"""Exhaustive density classification over primes p = 2*q^r + 1.

For such primes the unit group's subgroup lattice is a ladder, so the
bounded-residue set of any triple (x/p, y/p; z/p) is one of a handful of
shapes.  Sweep every triple for a few special primes and tabulate how often
each shape occurs and the largest density that appears.
"""

from fractions import Fraction

from hgdensity.specialcase import (
    enumerate_b_shapes,
    parse_special_prime,
    sweep_special,
)


def main():
    for p in (19, 23, 47, 59, 83, 107, 163, 251):
        sp = parse_special_prime(p)
        print(f"p = {p} = 2*{sp.q}^{sp.r} + 1")
        table = {s.label(): s.density for s in enumerate_b_shapes(sp)}
        res = sweep_special(sp)
        for label, dens in sorted(table.items(), key=lambda t: t[1]):
            count = res.shape_counts.get(label, 0)
            print(f"  {label:<12} density {str(dens):<7} triples {count}")
        print(f"  max density {res.max_density} at (x, y, z) = {res.witness}")
        print(f"  1/q bound {'holds' if res.max_density <= Fraction(1, sp.q) else 'exceeded'}"
              f" (1/q = 1/{sp.q})\n")


if __name__ == "__main__":
    main()
