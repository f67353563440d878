"""Finite bisimulation quotient of a stable linear system.

Builds the embedding-semantics partition of the working set, refines it
slice by slice against one-step preimages, and emits a deterministic
finite transition system whose states are the partition blocks.  All set
operations are exact, so the produced relation really is a bisimulation,
not an approximation of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .geometry import (
    Cell,
    Constraint,
    Region,
    Vector,
    bounding_box,
    boxes_overlap,
    cells_disjoint,
    contains_point,
    difference,
    intersect,
    is_empty,
    preimage_linear,
    remove_redundancy,
    vec,
)
from .lyapunov import (
    ContractionError,
    LinearSystem,
    PolyhedralLF,
    descends,
    level_sequence,
    slices as make_slices,
    sublevel_cell,
    verify_contraction,
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


@dataclass
class Block:
    id: int
    cell: Cell
    observation: Observation
    slice_index: int
    successor: Optional[int] = None


class Partition:
    """Disjoint blocks covering the working set, each inside one slice."""

    def __init__(
        self,
        dim: int,
        blocks: Iterable[Block],
        slice_regions: Sequence[Region],
        x_cell: Cell,
        d_cell: Cell,
        d_block_id: int,
        outside_target: Region,
    ):
        self.dim = dim
        self.blocks: dict[int, Block] = {b.id: b for b in blocks}
        self.slice_regions = list(slice_regions)
        self.x_cell = x_cell
        self.d_cell = d_cell
        self.d_block_id = d_block_id
        self.outside_target = outside_target
        # the certified contraction rate, once build_quotient has one
        self.rho_star: Optional[Fraction] = None
        self._next_id = 1 + max(self.blocks, default=-1)

    def fresh_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    def __len__(self) -> int:
        return len(self.blocks)

    def ordered_blocks(self) -> list[Block]:
        return sorted(self.blocks.values(), key=lambda b: (b.slice_index, b.id))

    def cell_of(self, x: Sequence) -> int:
        p = vec(x)
        if not contains_point(self.x_cell, p):
            raise ValueError("point lies outside the working set")
        for b in self.blocks.values():
            if _bbox_contains(b.cell, p) and contains_point(b.cell, p):
                return b.id
        raise AssertionError("partition does not cover the working set")


@dataclass(frozen=True)
class QuotientTS:
    """Deterministic finite transition system over partition blocks."""

    states: tuple[int, ...]
    transitions: dict[int, int]
    observations: dict[int, Observation]
    target_state: int


def _bbox_contains(cell: Cell, p: Vector) -> bool:
    for (lo, hi), v in zip(bounding_box(cell), p):
        if lo is not None and v < lo:
            return False
        if hi is not None and v > hi:
            return False
    return True


def observation_of(
    x: Sequence, regions: Sequence[ObservedRegion], d_cell: Cell
) -> Observation:
    p = vec(x)
    if contains_point(d_cell, p):
        return OBS_TARGET
    for r in regions:
        if contains_point(r.cell, p):
            return Observation(r.label)
    return OBS_EMPTY


# Error codes carried by RegionError; problem files report them as is.
MALFORMED = "MALFORMED"
REGION_DOMAIN = "REGION_DOMAIN"
REGION_OVERLAP = "REGION_OVERLAP"


class RegionError(ValueError):
    """Observed regions that the quotient cannot be built on."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ValidatedRegions(tuple):
    """Observed regions proven unique, disjoint and inside X \\ D.

    Carries the cells they were proven against (``x_cell``, ``d_cell`` and
    the redundancy-free ``outside_target``), so the partition built on them
    reuses the proof and the cells' cached boxes and samples.
    """


def validate_regions(
    x_cell: Cell, d_cell: Cell, regions: Sequence[ObservedRegion]
) -> ValidatedRegions:
    """Prove that the labels are unique, that each region lies inside the
    redundancy-free X \\ D, and that the regions are pairwise disjoint.
    Regions already validated against equal X and D are returned as is."""
    if isinstance(regions, ValidatedRegions) and (
        regions.x_cell.constraints, regions.d_cell.constraints
    ) == (x_cell.constraints, d_cell.constraints):
        return regions
    labels = [r.label for r in regions]
    if len(set(labels)) != len(labels):
        raise RegionError(MALFORMED, "duplicate region labels")
    outside_target = difference(Region.of([x_cell]), Region.of([d_cell]))
    outside_target = Region(
        tuple(remove_redundancy(c) for c in outside_target.cells)
    )
    for r in regions:
        if not difference(Region.of([r.cell]), outside_target).is_empty():
            raise RegionError(
                REGION_DOMAIN,
                f"region {r.label} is not inside the working set minus "
                "the target set",
            )
    for i, a in enumerate(regions):
        for b in regions[i + 1 :]:
            if not cells_disjoint(a.cell, b.cell):
                raise RegionError(
                    REGION_OVERLAP, f"regions {a.label} and {b.label} overlap"
                )
    out = ValidatedRegions(regions)
    out.x_cell, out.d_cell, out.outside_target = x_cell, d_cell, outside_target
    return out


def initial_partition(
    x_cell: Cell,
    d_cell: Cell,
    regions: Sequence[ObservedRegion],
    slice_regions: Sequence[Region],
) -> Partition:
    """Refine the observation partition by every slice.

    Equivalent to refining {regions, leftover, target} by the slices: each
    slice cell is cut against each region, and what is left is unobserved.
    Regions already validated against the same X and D are not proven
    again; any other sequence is, and a failure raises RegionError.
    """
    regions = validate_regions(x_cell, d_cell, regions)
    x_cell, d_cell = regions.x_cell, regions.d_cell

    blocks = []
    d_block = Block(0, d_cell, OBS_TARGET, 0, successor=0)
    blocks.append(d_block)
    next_id = 1
    for i in range(1, len(slice_regions)):
        for sc in slice_regions[i].cells:
            remaining = Region((sc,))
            for r in regions:
                if all(cells_disjoint(c, r.cell) for c in remaining.cells):
                    continue
                for c in remaining.cells:
                    piece = intersect(c, r.cell)
                    if not is_empty(piece):
                        blocks.append(
                            Block(
                                next_id,
                                remove_redundancy(piece),
                                Observation(r.label),
                                i,
                            )
                        )
                        next_id += 1
                remaining = difference(remaining, Region((r.cell,)))
            for c in remaining.cells:
                blocks.append(Block(next_id, remove_redundancy(c), OBS_EMPTY, i))
                next_id += 1
    return Partition(
        x_cell.dim,
        blocks,
        slice_regions,
        x_cell,
        d_cell,
        d_block.id,
        regions.outside_target,
    )


def find_pre(
    target: Region, sys: LinearSystem, outside_target: Region
) -> Region:
    """States outside the target set whose one-step image lies in target."""
    cells = []
    for tc in target.cells:
        pc = preimage_linear(tc, sys.a_matrix)
        for xc in outside_target.cells:
            if not boxes_overlap(pc, xc):
                continue
            inter = intersect(pc, xc)
            if not is_empty(inter):
                cells.append(remove_redundancy(inter))
    return Region(tuple(cells))


def _split_cell(cell: Cell, region: Region):
    """Cut a cell against a disjoint region.

    Returns (pieces inside, pieces outside, unchanged) where unchanged is
    True when the cell does not meet the region at all, or is one piece
    entirely inside it.
    """
    pieces_in = []
    for rc in region.cells:
        if not boxes_overlap(cell, rc):
            continue
        inter = intersect(cell, rc)
        if not is_empty(inter):
            pieces_in.append(inter)
    if not pieces_in:
        return [], [], True
    rest = [
        remove_redundancy(c)
        for c in difference(Region((cell,)), region).cells
    ]
    if not rest and len(pieces_in) == 1:
        return [cell], [], True
    return [remove_redundancy(p) for p in pieces_in], rest, False


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
    Raises RegionError (a ValueError) when the regions are not unique,
    disjoint and inside X \\ D.
    """
    seq = level_sequence(gamma_d, gamma_x, lf.rho)
    rho_star = verify_contraction(lf, sys)
    if rho_star > lf.rho and not descends(rho_star, seq):
        raise ContractionError(
            f"certified rate {rho_star} exceeds declared {lf.rho} and the "
            "level sequence is not invariant under one step"
        )

    x_cell = sublevel_cell(lf, seq.gammas[-1])
    d_cell = sublevel_cell(lf, seq.gammas[0])
    regions = validate_regions(x_cell, d_cell, regions)
    slice_regions = make_slices(lf, seq, (regions.x_cell, regions.d_cell))
    partition = initial_partition(x_cell, d_cell, regions, slice_regions)
    partition.rho_star = rho_star

    blocks = partition.blocks
    for i in range(seq.n_steps):
        targets = [b for b in blocks.values() if b.slice_index == i]
        for tgt in targets:
            pre = find_pre(Region((tgt.cell,)), sys, partition.outside_target)
            if pre.is_empty():
                continue
            candidates = [
                b
                for b in blocks.values()
                if b.successor is None and b.slice_index > i
            ]
            for b in candidates:
                pieces_in, rest, unchanged = _split_cell(b.cell, pre)
                if unchanged:
                    if pieces_in:
                        b.successor = tgt.id
                    continue
                del blocks[b.id]
                for piece in pieces_in:
                    nb = Block(
                        partition.fresh_id(),
                        piece,
                        b.observation,
                        b.slice_index,
                        tgt.id,
                    )
                    blocks[nb.id] = nb
                for piece in rest:
                    nb = Block(
                        partition.fresh_id(),
                        piece,
                        b.observation,
                        b.slice_index,
                        None,
                    )
                    blocks[nb.id] = nb

    missing = [b.id for b in blocks.values() if b.successor is None]
    if missing:
        raise AssertionError(
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


def _covered(
    target_cells: list[Cell], block_cells: list[Cell], depth: int = 0
) -> bool:
    """Exact check that the union of block_cells covers the target cells.

    Recursively bisects the target along its widest bounding-box axis so
    each leaf difference only sees the few blocks that can intersect it;
    the result is identical to one big set difference, just cheaper.
    """
    target_cells = [c for c in target_cells if not is_empty(c)]
    if not target_cells:
        return True
    cand = [
        b
        for b in block_cells
        if any(boxes_overlap(b, t) for t in target_cells)
    ]

    def direct() -> bool:
        return difference(
            Region(tuple(target_cells)), Region(tuple(cand))
        ).is_empty()

    if len(cand) <= 12 or depth >= 16:
        return direct()
    n = target_cells[0].dim
    boxes = [bounding_box(t) for t in target_cells]
    if any(lo is None or hi is None for box in boxes for lo, hi in box):
        return direct()
    lo = [min(box[j][0] for box in boxes) for j in range(n)]
    hi = [max(box[j][1] for box in boxes) for j in range(n)]
    j = max(range(n), key=lambda k: hi[k] - lo[k])
    if lo[j] == hi[j]:
        return direct()
    mid = (lo[j] + hi[j]) / 2
    normal = tuple(Fraction(1 if k == j else 0) for k in range(n))
    left = Cell(n, (Constraint(normal, mid, False),))
    right = Cell(n, (Constraint(tuple(-v for v in normal), -mid, False),))
    return _covered(
        [intersect(t, left) for t in target_cells], cand, depth + 1
    ) and _covered(
        [intersect(t, right) for t in target_cells], cand, depth + 1
    )


def audit_partition(
    partition: Partition, regions: Sequence[ObservedRegion]
) -> dict[str, bool]:
    """Exact structural audit of a partition.

    Checks four properties: blocks are pairwise disjoint, the blocks of
    each slice cover it exactly, every block lies inside its declared
    slice, and every block's cell is consistent with its observation.
    """
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
    slices_cover = _covered([partition.x_cell], slice_cells)

    alignment = True
    for b in blocks:
        sr = partition.slice_regions[b.slice_index]
        if not _covered([b.cell], list(sr.cells)):
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
        if not _covered(list(sr.cells), [b.cell for b in group]):
            coverage = False

    purity = True
    for b in blocks:
        if b.observation.is_target:
            if b.id != partition.d_block_id:
                purity = False
            continue
        if b.observation.is_region:
            match = [r for r in regions if r.label == b.observation.label]
            ok = len(match) == 1 and difference(
                Region((b.cell,)), Region((match[0].cell,))
            ).is_empty()
            if not ok:
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


def quotient_word(
    quotient: QuotientTS, start: int, max_len: Optional[int] = None
) -> tuple[Observation, ...]:
    """The unique observation word from a state.

    The word ends with the target observation, which by convention repeats
    forever; the finite tuple returned is the prefix up to and including
    its first occurrence.
    """
    if max_len is None:
        max_len = len(quotient.states) + 1
    word = []
    state = start
    for _ in range(max_len):
        obs = quotient.observations[state]
        word.append(obs)
        if state == quotient.target_state:
            return tuple(word)
        state = quotient.transitions[state]
    raise AssertionError("target state not reached within max_len steps")


def _format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def export_quotient(quotient: QuotientTS, partition: Partition) -> str:
    """Plain-text dump: one state line per block, then its H-representation.

    Deterministic: states ordered by (slice index, id), constraints in
    stored order, rationals always printed as p/q.
    """
    lines = []
    for b in partition.ordered_blocks():
        lines.append(
            f"state {b.id} slice={b.slice_index} obs={b.observation.label} "
            f"-> {quotient.transitions[b.id]}"
        )
        for c in b.cell.constraints:
            rel = "<" if c.strict else "<="
            coeffs = " ".join(_format_fraction(a) for a in c.normal)
            lines.append(f"  {coeffs} {rel} {_format_fraction(c.offset)}")
    return "\n".join(lines) + "\n"


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
