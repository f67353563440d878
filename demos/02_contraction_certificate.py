# Certifying a polyhedral Lyapunov function and building the level
# sequence between the target set and the working set.
#
# V(x) = ||Lx||_inf is a Lyapunov function for x' = Ax when one step
# shrinks V by a factor rho < 1.  The certification is exact: the maximum
# of each row of [LA; -LA] over the exact vertices of the unit sublevel
# polytope gives the least such factor, with no numerical tolerance
# involved.

from polybisim import (
    LinearSystem,
    PolyhedralLF,
    level_sequence,
    lf_value,
    slice_descent_check,
    verify_contraction,
)

system = LinearSystem.of([["0.65", "0.32"], ["-0.42", "-0.92"]])
lf = PolyhedralLF.of(
    [
        ["-0.0625", "1"],
        ["0.6815", "1"],
        ["0.9947", "0.6868"],
        ["0.9947", "-0.0678"],
    ],
    rho="0.94",
)

rho_star = verify_contraction(lf, system)
print(f"certified contraction rate: {rho_star} (~{float(rho_star):.6f})")
print("declared rate holds:", rho_star <= lf.rho)

# The thresholds grow geometrically from the target level to the working
# level; the last step is clipped so the sequence ends exactly at
# gamma_X.  Each consecutive pair bounds one annular slice of the state
# space, and the contraction guarantees one-step descent between slices.
seq = level_sequence("5.063", "10", lf.rho)
print(f"N = {seq.n_steps} levels:")
for i, g in enumerate(seq.gammas):
    print(f"  gamma_{i} = {float(g):.6f}")

print("slice descent certified:", slice_descent_check(lf, system, seq))

# V decreases along any trajectory, exactly.
x = (5, 5)
for step in range(4):
    print(f"  step {step}: V = {float(lf_value(lf, x)):.6f}")
    x = tuple(
        sum(row[j] * x[j] for j in range(2)) for row in system.a_matrix
    )
