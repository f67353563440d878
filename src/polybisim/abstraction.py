"""Finite bisimulation quotient of a stable linear system.

Builds the embedding-semantics partition of the working set, refines it
slice by slice against the one-step preimage of each block of the slice
below, and emits a deterministic finite transition system whose states
are the partition blocks.  Every candidate block already lies in X \\ D,
which only ``lyapunov.slices`` cuts, so a preimage is used whole.  All set
operations are exact, so the produced relation really is a bisimulation,
not an approximation of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    MALFORMED,
    REGION_DOMAIN,
    REGION_OVERLAP,
    InternalError,
    ProblemError,
)
from .geometry import (
    Cell,
    Region,
    box_contains_scaled,
    cell_subset,
    cells_disjoint,
    contains_scaled,
    difference,
    is_empty,
    preimage_linear,
    remove_redundancy,
    scale_point,
    split,
)
from .logic import Atom, ParseError, parse_ltl
from .lyapunov import (
    LinearSystem,
    PolyhedralLF,
    certified_rate,
    level_sequence,
    slices as make_slices,
    sublevel_cell,
)

EMPTY_LABEL = "EMPTY"
TARGET_LABEL = "PI_D"


@dataclass(frozen=True)
class Observation:
    """One of: a region label, the unobserved symbol, or the target symbol."""

    label: str

    @property
    def is_target(self) -> bool:
        return self.label == TARGET_LABEL

    @property
    def is_region(self) -> bool:
        return self.label not in (EMPTY_LABEL, TARGET_LABEL)

    def letter(self) -> frozenset[str]:
        """Alphabet letter: singleton atom set, or the empty set."""
        if self.label == EMPTY_LABEL:
            return frozenset()
        if self.label == TARGET_LABEL:
            return frozenset({"pid"})
        return frozenset({self.label})


OBS_EMPTY = Observation(EMPTY_LABEL)
OBS_TARGET = Observation(TARGET_LABEL)


@dataclass(frozen=True)
class ObservedRegion:
    label: str
    cell: Cell

    def __post_init__(self):
        if self.label in (EMPTY_LABEL, TARGET_LABEL, "pid"):
            raise ValueError(f"reserved region label: {self.label}")
        # a formula must be able to name the region: the label parses
        # as the atom of that name and as nothing else
        try:
            named = parse_ltl(self.label) == Atom(self.label)
        except ParseError:
            named = False
        if not named:
            raise ValueError(f"region label is not an LTL atom: {self.label!r}")


@dataclass
class Block:
    id: int
    cell: Cell
    observation: Observation
    slice_index: int
    successor: Optional[int] = None


class Partition:
    """Disjoint blocks covering the working set, each inside one slice.

    ``levels`` are the sublevel cells P_0..P_N: D is P_0, X is P_N, and
    slice i holds the points of P_i outside P_{i-1}.
    """

    def __init__(
        self,
        blocks: Iterable[Block],
        levels: Sequence[Cell],
        slice_regions: Sequence[Region],
    ):
        self.blocks: dict[int, Block] = {b.id: b for b in blocks}
        self.levels = tuple(levels)
        self.slice_regions = list(slice_regions)
        self.d_cell, self.x_cell = self.levels[0], self.levels[-1]
        self.dim = self.x_cell.dim
        self.d_block_id = next(
            b.id for b in self.blocks.values() if b.observation.is_target
        )
        # the certified contraction rate, once build_quotient has one
        self.rho_star: Optional[Fraction] = None
        self._next_id = 1 + max(self.blocks)

    def fresh_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    def __len__(self) -> int:
        return len(self.blocks)

    def ordered_blocks(self) -> list[Block]:
        return sorted(self.blocks.values(), key=lambda b: (b.slice_index, b.id))

    def cell_of(self, x: Sequence) -> int:
        """The block holding the point.  Slices are outer-closed and
        inner-open, so the first level cell that holds the point names its
        slice, and only that slice's blocks are tested."""
        p, m = scale_point(x, self.dim)
        if not contains_scaled(self.x_cell, p, m):
            raise ValueError("point lies outside the working set")
        # the last level is X, which holds the point
        i = next(
            (k for k, c in enumerate(self.levels[:-1]) if contains_scaled(c, p, m)),
            len(self.levels) - 1,
        )
        for b in self.blocks.values():
            if (
                b.slice_index == i
                and box_contains_scaled(b.cell, p, m)
                and contains_scaled(b.cell, p, m)
            ):
                return b.id
        raise InternalError("partition does not cover the working set")


@dataclass(frozen=True)
class QuotientTS:
    """Deterministic finite transition system over partition blocks."""

    states: tuple[int, ...]
    transitions: dict[int, int]
    observations: dict[int, Observation]
    target_state: int


def observation_of(
    x: Sequence, regions: Sequence[ObservedRegion], d_cell: Cell
) -> Observation:
    p, m = scale_point(x, d_cell.dim)
    return _observation_scaled(p, m, regions, d_cell)


def _observation_scaled(
    p: tuple[int, ...], m: int, regions: Sequence[ObservedRegion], d_cell: Cell
) -> Observation:
    """``observation_of`` the point p / m, as made by ``scale_point``."""
    if contains_scaled(d_cell, p, m):
        return OBS_TARGET
    for r in regions:
        if contains_scaled(r.cell, p, m):
            return Observation(r.label)
    return OBS_EMPTY


class ValidatedRegions(tuple):
    """Observed regions proven unique, disjoint and inside X \\ D.

    Carries the cells they were proven against (``x_cell`` and ``d_cell``),
    so the partition built on them reuses the proof and the cells' cached
    boxes and samples.
    """


def validate_regions(
    x_cell: Cell, d_cell: Cell, regions: Sequence[ObservedRegion]
) -> ValidatedRegions:
    """Prove that the labels are unique, that each region lies inside X and
    misses D and is not empty, and that the regions are pairwise disjoint.
    X \\ D itself is never cut here.  Regions already validated against
    equal X and D are returned as is.  A failure raises ProblemError."""
    if isinstance(regions, ValidatedRegions) and (
        regions.x_cell.constraints, regions.d_cell.constraints
    ) == (x_cell.constraints, d_cell.constraints):
        return regions
    labels = [r.label for r in regions]
    if len(set(labels)) != len(labels):
        raise ProblemError(MALFORMED, "duplicate region labels")
    for r in regions:
        if not (cell_subset(r.cell, x_cell) and cells_disjoint(r.cell, d_cell)):
            raise ProblemError(
                REGION_DOMAIN,
                f"region {r.label} is not inside the working set minus "
                "the target set",
            )
        if is_empty(r.cell):
            raise ProblemError(MALFORMED, f"region {r.label} is empty")
    for i, a in enumerate(regions):
        for b in regions[i + 1 :]:
            if not cells_disjoint(a.cell, b.cell):
                raise ProblemError(
                    REGION_OVERLAP, f"regions {a.label} and {b.label} overlap"
                )
    out = ValidatedRegions(regions)
    out.x_cell, out.d_cell = x_cell, d_cell
    return out


def initial_partition(
    levels: Sequence[Cell], regions: Sequence[ObservedRegion]
) -> Partition:
    """The partition of the levels P_0..P_N refined by the observations.

    Validates the regions against X = P_N and D = P_0; regions already
    validated against the same X and D are not proven again, and their
    cells, which carry the proof, cached box and sample, take the place
    of P_0 and P_N.  Each slice cell is cut against each region, and what
    is left is unobserved.  D is block 0, with its self loop.
    """
    regions = validate_regions(levels[-1], levels[0], regions)
    levels = (regions.d_cell, *levels[1:-1], regions.x_cell)
    slice_regions = make_slices(levels)

    blocks = [Block(0, regions.d_cell, OBS_TARGET, 0, successor=0)]

    def add(cell, observation, i):
        blocks.append(Block(len(blocks), remove_redundancy(cell), observation, i))

    for i in range(1, len(slice_regions)):
        for sc in slice_regions[i].cells:
            remaining = [sc]
            for r in regions:
                rest = []
                for c in remaining:
                    inside, outside = split(c, r.cell)
                    if inside is not None:
                        add(inside, Observation(r.label), i)
                    rest += outside
                remaining = rest
            for c in remaining:
                add(c, OBS_EMPTY, i)
    return Partition(blocks, levels, slice_regions)


def find_pre(target: Cell, sys: LinearSystem) -> Optional[Cell]:
    """The states whose one-step image lies in the target cell: its
    preimage as it is, or None when that is empty.  The refinement cuts
    blocks that already lie in X \\ D, so the preimage is not cut by it.
    When A is invertible x -> Ax is a bijection: the preimage of a
    redundancy-free cell is redundancy-free, and it carries the cell's
    vertices mapped by A^-1, which prove it non-empty.  Under a singular
    A its Cramer box decides."""
    pre = preimage_linear(target, sys.a_matrix)
    return None if is_empty(pre) else pre


def build_quotient(
    sys: LinearSystem,
    lf: PolyhedralLF,
    gamma_d,
    gamma_x,
    regions: Sequence[ObservedRegion],
) -> tuple[QuotientTS, Partition]:
    """Run the full abstraction loop and return quotient plus partition.

    Certifies the contraction rate once and records it as
    ``partition.rho_star``.  Raises ContractionError when neither the
    declared rate nor the exact slice-descent certificate holds; the
    refinement loop is only sound on top of a certified descent property.
    Raises ProblemError (a ValueError) when the regions are not unique,
    disjoint and inside X \\ D.
    """
    seq = level_sequence(gamma_d, gamma_x, lf.rho)
    rho_star = certified_rate(lf, sys, seq)

    levels = [sublevel_cell(lf, gamma) for gamma in seq.gammas]
    partition = initial_partition(levels, regions)
    partition.rho_star = rho_star

    blocks = partition.blocks
    for i in range(seq.n_steps):
        targets = [b for b in blocks.values() if b.slice_index == i]
        for tgt in targets:
            pre = find_pre(tgt.cell, sys)
            if pre is None:
                continue
            candidates = [
                b
                for b in blocks.values()
                if b.successor is None and b.slice_index > i
            ]
            for b in candidates:
                inside, outside = split(b.cell, pre)
                if inside is None:
                    continue
                if not outside:
                    b.successor = tgt.id
                    continue
                del blocks[b.id]
                pieces = [(inside, tgt.id)] + [(c, None) for c in outside]
                for piece, successor in pieces:
                    nb = Block(
                        partition.fresh_id(),
                        remove_redundancy(piece),
                        b.observation,
                        b.slice_index,
                        successor,
                    )
                    blocks[nb.id] = nb

    missing = [b.id for b in blocks.values() if b.successor is None]
    if missing:
        raise InternalError(
            f"abstraction loop left {len(missing)} blocks without successor"
        )
    ordered = partition.ordered_blocks()
    quotient = QuotientTS(
        states=tuple(b.id for b in ordered),
        transitions={b.id: b.successor for b in ordered},
        observations={b.id: b.observation for b in ordered},
        target_state=partition.d_block_id,
    )
    return quotient, partition


def cell_of(partition: Partition, x: Sequence) -> int:
    return partition.cell_of(x)


def audit_partition(
    partition: Partition, regions: Sequence[ObservedRegion]
) -> dict[str, bool]:
    """Exact structural audit of a partition.

    Checks four properties: blocks are pairwise disjoint, the blocks of
    each slice cover it exactly, every block lies inside its declared
    slice, and every block's cell is consistent with its observation.
    Each cover (X by the slices, a slice by its blocks, a block by its
    slice) is one ``difference``, empty iff the cells cover the targets;
    a region block's purity is ``cell_subset`` of its region.
    """

    def covered(targets: Iterable[Cell], cells: Iterable[Cell]) -> bool:
        return difference(Region.of(targets), Region(tuple(cells))).is_empty()

    blocks = list(partition.blocks.values())
    by_slice: dict[int, list[Block]] = {}
    for b in blocks:
        by_slice.setdefault(b.slice_index, []).append(b)

    # Slice regions are pairwise disjoint and together cover the working
    # set; with per-slice checks below this gives global disjointness and
    # coverage without comparing blocks across slices.
    slice_cells = [c for r in partition.slice_regions for c in r.cells]
    slices_disjoint = True
    for ri, ra in enumerate(partition.slice_regions):
        for rb in partition.slice_regions[ri + 1 :]:
            for ca in ra.cells:
                for cb in rb.cells:
                    if not cells_disjoint(ca, cb):
                        slices_disjoint = False
    slices_cover = covered([partition.x_cell], slice_cells)

    alignment = True
    for b in blocks:
        sr = partition.slice_regions[b.slice_index]
        if not covered([b.cell], sr.cells):
            alignment = False

    disjoint = slices_disjoint
    for group in by_slice.values():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if not cells_disjoint(a.cell, b.cell):
                    disjoint = False

    coverage = slices_cover
    for i, sr in enumerate(partition.slice_regions):
        group = by_slice.get(i, [])
        if not covered(sr.cells, [b.cell for b in group]):
            coverage = False

    purity = True
    for b in blocks:
        if b.observation.is_target:
            if b.id != partition.d_block_id:
                purity = False
            continue
        if b.observation.is_region:
            match = [r for r in regions if r.label == b.observation.label]
            if len(match) != 1 or not cell_subset(b.cell, match[0].cell):
                purity = False
        else:
            for r in regions:
                if not cells_disjoint(b.cell, r.cell):
                    purity = False
        if not cells_disjoint(b.cell, partition.d_cell):
            purity = False

    return {
        "disjointness": disjoint,
        "coverage": coverage,
        "slice_alignment": alignment,
        "observation_purity": purity,
    }


def quotient_word(quotient: QuotientTS, start: int) -> tuple[Observation, ...]:
    """The unique observation word from a state.

    The word ends with the target observation, which by convention repeats
    forever; the finite tuple returned is the prefix up to and including
    its first occurrence.  A path that visits more states than the
    quotient has cycles short of the target: InternalError.
    """
    word = []
    state = start
    for _ in range(len(quotient.states) + 1):
        obs = quotient.observations[state]
        word.append(obs)
        if state == quotient.target_state:
            return tuple(word)
        state = quotient.transitions[state]
    raise InternalError("the successor chain cycles without reaching the target")


def _format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def export_quotient(quotient: QuotientTS, partition: Partition) -> str:
    """Plain-text dump: one state line per block, then its H-representation.

    Deterministic: states ordered by (slice index, id), constraints in
    stored order, rationals always printed as p/q.
    """
    lines = [
        line for b in partition.ordered_blocks() for line in _block_lines(quotient, b)
    ]
    return "\n".join(lines) + "\n"


def _block_lines(quotient: QuotientTS, b: Block) -> list[str]:
    """One block's export lines: its state line, then one line per row."""
    lines = [
        f"state {b.id} slice={b.slice_index} obs={b.observation.label} "
        f"-> {quotient.transitions[b.id]}"
    ]
    for c in b.cell.constraints:
        rel = "<" if c.strict else "<="
        coeffs = " ".join(_format_fraction(a) for a in c.normal)
        lines.append(f"  {coeffs} {rel} {_format_fraction(c.offset)}")
    return lines


def parse_quotient(text: str):
    """Inverse of export_quotient, for round-trip checks.

    Returns (transitions, observations, slice_indices, cells) keyed by
    state id, with cells as lists of (normal, relation, offset).
    """
    transitions: dict[int, int] = {}
    observations: dict[int, str] = {}
    slice_indices: dict[int, int] = {}
    cells: dict[int, list] = {}
    current = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("state "):
            parts = line.split()
            current = int(parts[1])
            slice_indices[current] = int(parts[2].split("=")[1])
            observations[current] = parts[3].split("=", 1)[1]
            transitions[current] = int(parts[5])
            cells[current] = []
        else:
            parts = line.split()
            rel = parts[-2]
            offset = Fraction(parts[-1])
            normal = tuple(Fraction(p) for p in parts[:-2])
            cells[current].append((normal, rel, offset))
    return transitions, observations, slice_indices, cells
