"""Minimum coverage instrumentation: where to put the probes.

A probe at block ``v`` counts executions of ``v``.  Placement picks the
smallest probe set from which flow conservation recovers *every* block
frequency, and among all minimum-size sets the one whose blocks are
coldest under the training profile (Chen et al., arXiv 2208.13907's
min-cost refinement) — the hot path runs uninstrumented.

The determining sets form a linear matroid: probe measurements are rows
in the chord-coordinate space of :class:`~repro.profiles.probes.flowsys.
CirculationSpace`, and a set determines all frequencies iff its rows (together
with the known run count ``t``) span the full measurement space.
Greedily scanning blocks in ascending cost order and keeping each block
whose row grows the span therefore yields a probe set that is both
minimum-size and minimum-cost — the classic matroid-greedy optimality
argument, with no search.

For a single-exit reducible-or-not CFG the spanned space has dimension
at most ``|E| − |V| + 2`` and ``t`` always contributes one dimension, so
the probe count is bounded by ``|E| − |V| + 1`` (|E|, |V| over the
reachable real CFG) — the spanning-tree bound BENCH pins.

Placement refuses rather than degrades: multi-exit functions (several
return blocks — the augmented graph gains extra virtual edges and the
bound no longer holds), functions with no exit at all, and functions
above a block-count guard raise :class:`PlacementError` with a machine-
readable ``reason`` so callers fall back to full counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.profiles.probes.flowsys import (
    CirculationSpace,
    Eliminator,
    FlowSystem,
)

#: Reasons a CFG is refused (callers fall back to full counting).
REFUSAL_REASONS = ("multi-exit", "no-exit", "too-large")

#: Default guard on CFG size: beyond this the exact rational algebra is
#: no longer obviously cheap, and nothing in this code base comes close.
MAX_BLOCKS = 512


class PlacementError(Exception):
    """The CFG is outside the subsystem's certified envelope.

    ``reason`` is one of :data:`REFUSAL_REASONS`; callers use it to
    decide (and report) the full-counting fallback.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class ProbePlacement:
    """A certified probe set for one CFG shape.

    Label data — hashable and picklable — plus ``system``, the fixed
    reconstruction map of this probe set, factored once at construction.
    The map is plain data too, so it pickles with the placement (and
    with any program lowered against it): rehydrating never factors
    again.  ``probes`` is the instrumentation set in placement
    (ascending-cost) order; ``bound`` is the spanning-tree bound
    ``|E| − |V| + 1`` the set is guaranteed not to exceed.
    """

    entry: str
    blocks: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    exits: tuple[str, ...]
    probes: tuple[str, ...]
    n_edges: int = field(init=False, default=0)
    bound: int = field(init=False, default=0)
    probe_set: frozenset[str] = field(init=False, repr=False, compare=False)
    system: FlowSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_edges", len(self.edges))
        object.__setattr__(self, "probe_set", frozenset(self.probes))
        object.__setattr__(
            self, "bound", max(0, len(self.edges) - len(self.blocks) + 1)
        )
        object.__setattr__(self, "system", _system_for(
            self.entry, self.blocks, self.edges, self.exits, self.probes
        ))


@lru_cache(maxsize=256)
def _space_for(
    entry: str,
    blocks: tuple[str, ...],
    edges: tuple[tuple[str, str], ...],
    exits: tuple[str, ...],
) -> CirculationSpace:
    return CirculationSpace(entry, blocks, edges, exits)


@lru_cache(maxsize=256)
def _system_for(
    entry: str,
    blocks: tuple[str, ...],
    edges: tuple[tuple[str, str], ...],
    exits: tuple[str, ...],
    probes: tuple[str, ...],
) -> FlowSystem:
    """The reconstruction map, factored once per (CFG shape, probe set):
    a recompile that places the same probes on the same CFG shares it.
    The map is immutable, so sharing is safe."""
    return FlowSystem.factor(_space_for(entry, blocks, edges, exits), probes)


def cfg_shape(
    func: Function,
) -> tuple[str, tuple[str, ...], tuple[tuple[str, str], ...], tuple[str, ...]]:
    """The reachable CFG of *func* as plain label data (entry, blocks in
    RPO, merged distinct edges, exit blocks)."""
    cfg = CFG(func)
    rpo = tuple(cfg.reverse_postorder())
    reachable = set(rpo)
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for label in rpo:
        for succ in cfg.succs[label]:
            if succ in reachable and (label, succ) not in seen:
                seen.add((label, succ))
                edges.append((label, succ))
    exits = tuple(label for label in rpo if not cfg.succs[label])
    assert cfg.entry is not None
    return cfg.entry, rpo, tuple(edges), exits


def place_probes(
    func: Function,
    profile=None,
    max_blocks: int = MAX_BLOCKS,
) -> ProbePlacement:
    """Compute the minimum-cost minimum-size probe set for *func*.

    *profile* (an ``ExecutionProfile`` or anything with ``node_freq``)
    supplies the cost of probing each block; blocks it does not mention
    cost 0.  Without a profile every block costs 0 and the greedy falls
    back to reverse-postorder tie-breaking, which keeps placement
    deterministic either way.

    Raises :class:`PlacementError` on multi-exit, exit-free or oversized
    CFGs — the shapes where the reconstruction contract (exact counts,
    spanning-tree probe bound) is not certified.
    """
    entry, blocks, edges, exits = cfg_shape(func)
    if len(blocks) > max_blocks:
        raise PlacementError(
            "too-large", f"{len(blocks)} blocks exceeds guard {max_blocks}"
        )
    if not exits:
        raise PlacementError(
            "no-exit", f"function {func.name!r} has no return block"
        )
    if len(exits) > 1:
        raise PlacementError(
            "multi-exit",
            f"function {func.name!r} has {len(exits)} return blocks "
            f"{list(exits)!r}",
        )

    space = _space_for(entry, blocks, edges, exits)

    # Rank of the full measurement space {t} ∪ {m_v : all v}.
    full = Eliminator(space.dimension)
    full.add(space.t_row)
    for label in blocks:
        full.add(space.node_rows[label])

    node_freq = getattr(profile, "node_freq", None) or {}
    order = sorted(
        range(len(blocks)),
        key=lambda i: (node_freq.get(blocks[i], 0), i),
    )

    chosen = Eliminator(space.dimension)
    chosen.add(space.t_row)
    probes: list[str] = []
    for i in order:
        if chosen.rank == full.rank:
            break
        if chosen.add(space.node_rows[blocks[i]]):
            probes.append(blocks[i])
    assert chosen.rank == full.rank, "matroid greedy failed to reach full rank"

    placement = ProbePlacement(
        entry=entry, blocks=blocks, edges=edges, exits=exits,
        probes=tuple(probes),
    )
    assert len(placement.probes) <= placement.bound, (
        f"probe set {len(placement.probes)} exceeds spanning-tree bound "
        f"{placement.bound}"
    )
    return placement
