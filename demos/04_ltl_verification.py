# Verifying an LTL formula on the quotient.
#
# This demo shows the automaton path: the formula is translated to a
# generalized Buchi automaton with a tableau construction, the automaton is
# synchronized with the quotient, and the satisfying states are those
# with an accepting run, one that visits every acceptance set infinitely
# often.  Because the quotient is a bisimulation, the verdict for a block
# transfers to every concrete state inside it.
#
# run_pipeline does not build an automaton.  It calls label_quotient,
# which labels the deterministic quotient state by state; the automaton
# path is its independent oracle, and the last lines below compare them.

from polybisim import (
    Cell,
    LinearSystem,
    ObservedRegion,
    PolyhedralLF,
    build_quotient,
    constraint,
    f_star,
    label_quotient,
    parse_ltl,
    product,
    satisfying_states,
    to_buchi,
)

system = LinearSystem.of([["0.5", "0"], ["0", "0.5"]])
lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], rho="0.5")
r1 = ObservedRegion(
    "r1",
    Cell(
        2,
        [
            constraint([1, 0], 3),
            constraint([-1, 0], -2),
            constraint([0, 1], 1),
            constraint([0, -1], 1),
        ],
    ),
)
quotient, partition = build_quotient(system, lf, 1, 4, [r1])

# Atoms are the region labels plus "pid", the observation of the target
# set.  Every trajectory eventually enters the target and stays, so
# "F pid" holds everywhere and "G !pid" holds nowhere.
for text in ("F r1", "r1", "F pid", "G !pid", "!r1 U pid"):
    formula = parse_ltl(text, atoms={"r1", "pid"})
    automaton = to_buchi(formula)
    prod = product(quotient, automaton)
    sat = satisfying_states(prod, f_star(prod), partition)
    print(
        f"{text!r}: {len(sat.state_ids)} of {len(quotient.states)} "
        f"states satisfy"
    )

# The satisfying set also carries the union of the matching blocks as an
# exact region of the state space.
formula = parse_ltl("F r1", atoms={"r1", "pid"})
prod = product(quotient, to_buchi(formula))
sat = satisfying_states(prod, f_star(prod), partition)
print(f"'F r1' region has {len(sat.region.cells)} cells")

# The path run_pipeline uses gives the same set and the same region.
for text in ("F r1", "r1", "F pid", "G !pid", "!r1 U pid"):
    formula = parse_ltl(text, atoms={"r1", "pid"})
    prod = product(quotient, to_buchi(formula))
    same = label_quotient(quotient, formula, partition) == satisfying_states(
        prod, f_star(prod), partition
    )
    print(f"{text!r}: label_quotient agrees with the automaton path: {same}")
