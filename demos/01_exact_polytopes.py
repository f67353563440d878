# Partially-open polytopes with exact rational arithmetic.
#
# Every set in this package is a finite union of cells, where a cell is an
# intersection of halfspaces each flagged strict or non-strict.  All
# predicates are decided exactly, so boundary cases behave the way the
# math says they should, not the way floating point rounds them.

from fractions import Fraction

from polybisim import (
    Cell,
    Constraint,
    Region,
    complement,
    constraint,
    contains_point,
    difference,
    intersect,
    is_empty,
    sample_point,
)

# A closed unit square and an open version of the same square.
closed = Cell(
    2,
    [
        constraint([1, 0], 1),
        constraint([-1, 0], 0),
        constraint([0, 1], 1),
        constraint([0, -1], 0),
    ],
)
open_square = Cell(
    2, [Constraint(c.normal, c.offset, True) for c in closed.constraints]
)

corner = (Fraction(1), Fraction(1))
print("corner in closed square:", contains_point(closed, corner))
print("corner in open square:  ", contains_point(open_square, corner))

# Emptiness is decided exactly from the vertices of the closure: empty
# iff there are none or a strict row is tight at all of them.  The
# difference between "x < 0 and x >= 0" and "x <= 0 and x >= 0" is one
# strict flag, and the rule sees it.
empty = Cell(1, [constraint([1], 0, True), constraint([-1], 0)])
point = Cell(1, [constraint([1], 0), constraint([-1], 0)])
print("strict version empty:", is_empty(empty))
print("closed version empty:", is_empty(point), "sample:", sample_point(point))

# Set difference returns a disjoint decomposition: the closure of the
# square minus its interior is the boundary, split into four cells.
boundary = difference(Region.of([closed]), Region.of([open_square]))
print("boundary pieces:", len(boundary.cells))
for cell in boundary.cells:
    print("  piece sample:", sample_point(cell))

# The complement of a cell is likewise a disjoint region, one piece per
# violated constraint.
outside = complement(closed)
probe = (Fraction(2), Fraction("0.5"))
hits = [c for c in outside.cells if contains_point(c, probe)]
print("probe outside the square lands in exactly one piece:", len(hits) == 1)

# Intersection is just constraint concatenation; emptiness is cached per
# cell so repeated queries are free.
overlap = intersect(closed, Cell(2, [constraint([1, 0], Fraction(1, 2))]))
print("left half sample:", sample_point(overlap))
