"""Exact flow-conservation systems over an augmented CFG.

The mathematical core of minimum-coverage profiling (Chen et al.,
arXiv 2208.13907; the spanning-tree idea goes back to Knuth and
Ball–Larus edge profiling).  The CFG is augmented with one virtual node
``⊤`` (represented as :data:`VIRTUAL`): an edge ``⊤ → entry`` carrying
one unit of flow per run and an edge ``exit → ⊤`` returning it.  In the
augmented graph every execution is a circulation, so the set of edge
frequencies consistent with flow conservation is exactly the
*circulation space* — a linear space of dimension ``|E'| − |V'| + 1``
spanned by the fundamental circulations of any spanning tree's chords.

Everything observable is a linear functional of the circulation in
chord coordinates:

* ``t`` — the flow on the virtual entry edge (the number of runs);
* ``m_v`` — the in-flow of block ``v``, which is precisely its
  execution count (the entry block's in-flow includes the virtual
  edge, so its count is ``runs + back-edge traversals``, matching what
  an interpreter observes).

A probe at block ``v`` *measures* ``m_v``.  A probe set ``S`` determines
every block frequency iff every ``m_v`` lies in the row span of
``{t} ∪ {m_u : u ∈ S}`` — a rank condition this module decides exactly
over :class:`fractions.Fraction`, with no numerical slack.

Reconstruction is a *fixed* linear map from the measurement vector
``(t, counts of S)`` to every block count and edge flow: the probe set
never changes after placement.  :meth:`FlowSystem.factor` therefore
reduces ``[rows | I]`` once per (CFG shape, probe set), decides there
everything that does not depend on the counts — which blocks the probes
leave under-determined, whether every edge flow is pinned down — and
keeps the map as an integer matrix over one common denominator.  A run's
:meth:`FlowSystem.solve` is then integer dot products plus the checks
that must stay loud (consistency, exact division, non-negativity).
Exact rational elimination is not cheap in Python: redone per run it
cost about 2 ms a request on 9–134-block CFGs and over 100 ms on a
442-block one, many times the run it reconstructed.  Factored once, it
is paid when probes are placed, and applying the map costs tens of
microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

#: The virtual outside-world node of the augmented flow graph.  ``None``
#: can never collide with a real block label.
VIRTUAL = None


class ReconstructionError(Exception):
    """Raised when probe counts cannot be extended to exact frequencies.

    Two distinct situations end here, both loud by design:

    * the linear system is inconsistent or leaves a requested frequency
      under-determined — the probe set was not certified for this CFG
      (or the counts come from a different program);
    * the unique solution is not a non-negative integer — the counts
      are corrupt (an engine bug, or counters from a different run).
    """


#: A sparse integer row: ``(column, coefficient)`` pairs, zeros omitted.
SparseRow = tuple[tuple[int, int], ...]


def _sparse(row: tuple[int, ...]) -> dict[int, int]:
    return {j: x for j, x in enumerate(row) if x}


class Eliminator:
    """Incremental exact row echelon basis over ℚ^d.

    :meth:`add` reduces the incoming row against the stored basis and
    keeps it iff it is independent — the membership test the matroid
    greedy in :mod:`repro.profiles.probes.placement` is built on.  Rows
    are sparse ``{column: value}`` maps (measurement rows mostly are),
    so a reduction costs the stored rows' nonzeros, not ``d`` per row.
    Columns from ``d`` on ride along unpivoted: :meth:`FlowSystem.factor`
    tracks there which combination of its input rows each row is.
    """

    def __init__(self, d: int) -> None:
        self.d = d
        self._rows: list[dict[int, Fraction]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """*row* minus the combination of stored rows that clears every
        pivot column."""
        work = dict(row)
        # Stored row i is zero at the pivots of the rows before it, so
        # one pass in insertion order clears every pivot column.
        for stored, pivot in zip(self._rows, self._pivots):
            factor = work.get(pivot)
            if factor:
                for j, value in stored.items():
                    rest = work.get(j, 0) - factor * value
                    if rest:
                        work[j] = rest
                    else:
                        del work[j]
        return work

    def insert(self, work: dict[int, Fraction]) -> bool:
        """Keep a :meth:`reduce`-d row iff its first ``d`` columns are not
        all zero; return whether the rank grew."""
        pivot = min((j for j in work if j < self.d), default=None)
        if pivot is None:
            return False
        inv = Fraction(work[pivot])
        self._rows.append({j: x / inv for j, x in work.items()})
        self._pivots.append(pivot)
        return True

    def add(self, row: tuple[int, ...]) -> bool:
        """Insert *row* if independent of the current span; return whether
        the rank grew."""
        return self.insert(self.reduce(_sparse(row)))


class CirculationSpace:
    """The augmented flow graph of one CFG, in chord coordinates.

    Built from plain label data (entry, reachable blocks, merged real
    edges, exit blocks), so it is a pure function of the CFG shape.
    Placement ranks probe candidates against its rows and
    :meth:`FlowSystem.factor` inverts them; nothing on a run's path
    needs it.
    """

    def __init__(
        self,
        entry: str,
        blocks: tuple[str, ...],
        edges: tuple[tuple[str, str], ...],
        exits: tuple[str, ...],
    ) -> None:
        self.entry = entry
        self.blocks = tuple(blocks)
        self.real_edges = tuple(edges)
        self.exits = tuple(exits)
        augmented: list[tuple[object, object]] = list(self.real_edges)
        self.virtual_entry = len(augmented)
        augmented.append((VIRTUAL, entry))
        for exit_label in self.exits:
            augmented.append((exit_label, VIRTUAL))
        self.edges: tuple[tuple[object, object], ...] = tuple(augmented)
        self._build_tree()
        self._build_rows()

    # -- spanning tree and fundamental circulations --------------------
    def _build_tree(self) -> None:
        adjacency: dict[object, list[tuple[int, object]]] = {
            VIRTUAL: [], **{label: [] for label in self.blocks}
        }
        for index, (src, dst) in enumerate(self.edges):
            if src == dst:
                continue  # a self loop can never extend a tree
            adjacency[src].append((index, dst))
            adjacency[dst].append((index, src))

        #: node -> (parent, edge index, +1 if the edge is parent→node).
        parent: dict[object, tuple[object, int, int]] = {}
        depth: dict[object, int] = {VIRTUAL: 0}
        tree_edges: set[int] = set()
        frontier: list[object] = [VIRTUAL]
        while frontier:
            node = frontier.pop()
            for index, other in adjacency[node]:
                if other in depth:
                    continue
                src, _dst = self.edges[index]
                parent[other] = (node, index, 1 if src == node else -1)
                depth[other] = depth[node] + 1
                tree_edges.add(index)
                frontier.append(other)
        # Every reachable block reaches an exit?  Not necessarily — but
        # undirected connectivity to ⊤ only needs a directed path *from*
        # the entry, which reachability guarantees.
        missing = [b for b in self.blocks if b not in depth]
        if missing:  # pragma: no cover - placement filters unreachable
            raise ValueError(f"blocks disconnected from entry: {missing}")

        self.chords = [
            i for i in range(len(self.edges)) if i not in tree_edges
        ]
        #: Per chord: augmented-edge index -> ±1 circulation coefficient.
        self.chi: list[dict[int, int]] = []
        for chord in self.chords:
            src, dst = self.edges[chord]
            cycle: dict[int, int] = {chord: 1}
            if src != dst:
                # Close the cycle with the tree path dst → … → src.
                a, b = dst, src
                while depth[a] > depth[b]:
                    up, index, orient = parent[a]
                    cycle[index] = cycle.get(index, 0) - orient
                    a = up
                while depth[b] > depth[a]:
                    up, index, orient = parent[b]
                    cycle[index] = cycle.get(index, 0) + orient
                    b = up
                while a != b:
                    up_a, index_a, orient_a = parent[a]
                    cycle[index_a] = cycle.get(index_a, 0) - orient_a
                    a = up_a
                    up_b, index_b, orient_b = parent[b]
                    cycle[index_b] = cycle.get(index_b, 0) + orient_b
                    b = up_b
            self.chi.append({k: v for k, v in cycle.items() if v})

    # -- measurement rows ----------------------------------------------
    def _build_rows(self) -> None:
        d = len(self.chords)
        in_edges: dict[object, list[int]] = {label: [] for label in self.blocks}
        for index, (_src, dst) in enumerate(self.edges):
            if dst is not VIRTUAL:
                in_edges[dst].append(index)
        self.node_rows: dict[str, tuple[int, ...]] = {}
        for label in self.blocks:
            row = [0] * d
            for index in in_edges[label]:
                for j, cycle in enumerate(self.chi):
                    coeff = cycle.get(index)
                    if coeff:
                        row[j] += coeff
            self.node_rows[label] = tuple(row)
        self.t_row = tuple(
            cycle.get(self.virtual_entry, 0) for cycle in self.chi
        )
        self.dimension = d

    def edge_row(self, index: int) -> tuple[int, ...]:
        """The flow on augmented edge *index* as a chord-coordinate row."""
        return tuple(cycle.get(index, 0) for cycle in self.chi)


@dataclass(frozen=True)
class FlowSystem:
    """The fixed reconstruction map of one probe set over one CFG.

    The measurement vector is ``(runs, count of probes[0], …)``.  Every
    map row holds sparse integer coefficients over it; a value is the
    row's dot product with the vector, divided — exactly — by
    ``denominator``.  Plain data: it pickles with its
    :class:`~repro.profiles.probes.placement.ProbePlacement` (and so
    with any program lowered against it), and a rehydrated program never
    factors again.
    """

    blocks: tuple[str, ...]
    real_edges: tuple[tuple[str, str], ...]
    probes: tuple[str, ...]
    denominator: int
    #: Per block (aligned with ``blocks``): the map row of its count.
    node_map: tuple[SparseRow, ...]
    #: Per real edge: the map row of its flow; ``None`` when the probes
    #: leave some edge flow free (edge frequencies are all-or-nothing).
    edge_map: tuple[SparseRow, ...] | None
    #: Left-nullspace rows of the measurements: consistent counts are
    #: orthogonal to every one (redundant probes must agree).
    consistency: tuple[SparseRow, ...] = ()
    #: The first block the probes do not determine; solving then raises.
    undetermined: str | None = None

    @classmethod
    def factor(cls, space: CirculationSpace, probes: tuple[str, ...]) -> "FlowSystem":
        """Invert the measurements of *probes* over *space* once."""
        unknown = [v for v in probes if v not in space.node_rows]
        if unknown:
            raise ValueError(f"probes {unknown!r} are not blocks of the CFG")
        d = space.dimension
        # Reduce [rows | I]: a row that reduces to zero on the left leaves
        # on the right a left-nullspace vector of the measurements.
        basis = Eliminator(d)
        consistency = []
        rows = [space.t_row] + [space.node_rows[v] for v in probes]
        for i, row in enumerate(rows):
            work = basis.reduce({**_sparse(row), d + i: 1})
            if not basis.insert(work):
                scale = math.lcm(1, *(x.denominator for x in work.values()))
                consistency.append(tuple(
                    (j - d, int(x * scale)) for j, x in sorted(work.items())
                ))

        def express(target: tuple[int, ...]) -> dict[int, Fraction] | None:
            """*target*'s coefficients over the measurements, or ``None``
            when it lies outside their span."""
            work = basis.reduce(_sparse(target))
            if any(j < d for j in work):
                return None
            return {j - d: -x for j, x in work.items()}

        node_coeffs = []
        for label in space.blocks:
            coeffs = express(space.node_rows[label])
            if coeffs is None:
                return cls(
                    space.blocks, space.real_edges, tuple(probes), 1,
                    (), None, undetermined=label,
                )
            node_coeffs.append(coeffs)
        edge_coeffs: list[dict[int, Fraction]] | None = []
        for index in range(len(space.real_edges)):
            coeffs = express(space.edge_row(index))
            if coeffs is None:
                edge_coeffs = None
                break
            edge_coeffs.append(coeffs)

        denominator = math.lcm(1, *(
            x.denominator
            for coeffs in node_coeffs + (edge_coeffs or [])
            for x in coeffs.values()
        ))

        def scaled(coeffs: dict[int, Fraction]) -> SparseRow:
            return tuple(
                (j, int(x * denominator)) for j, x in sorted(coeffs.items())
            )

        return cls(
            blocks=space.blocks,
            real_edges=space.real_edges,
            probes=tuple(probes),
            denominator=denominator,
            node_map=tuple(scaled(c) for c in node_coeffs),
            edge_map=None if edge_coeffs is None else tuple(
                scaled(c) for c in edge_coeffs
            ),
            consistency=tuple(consistency),
        )

    # -- the per-run path ---------------------------------------------
    # The map runs as one generated function returning every block count
    # and edge flow (numerators over ``denominator``) as a tuple of plain
    # integer sums, about 3x faster than looping over sparse rows.  It is
    # a pure function of the map rows, so it is rebuilt, never pickled.
    # A row has at most one term per measurement, and placement caps
    # those at |E| - |V| + 2 of a CFG within MAX_BLOCKS, well inside what
    # the compiler nests.
    def __post_init__(self) -> None:
        sums = []
        for row in self.node_map + (self.edge_map or ()):
            terms = "".join(
                f"+r[{j}]" if a == 1 else
                f"-r[{j}]" if a == -1 else
                f"{a:+d}*r[{j}]"
                for j, a in row
            )
            sums.append(terms.lstrip("+") or "0")
        body = f"({', '.join(sums)},)" if sums else "()"
        namespace: dict = {}
        exec(f"def kernel(r):\n    return {body}", namespace)
        object.__setattr__(self, "_kernel", namespace["kernel"])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_kernel"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def solve(
        self,
        probe_counts,
        runs: int,
    ) -> tuple[dict[str, int], dict[tuple[str, str], int] | None]:
        """The nonzero node frequencies of *runs* executions and, when the
        probes determine every edge flow, the nonzero edge frequencies.

        ``probe_counts`` maps probed labels to observed execution counts;
        missing labels read as 0 (a probe that never fired).  Raises
        :class:`ReconstructionError` on inconsistent, under-determined or
        non-integral systems — never a silently wrong profile.
        """
        if self.undetermined is not None:
            raise ReconstructionError(
                f"block {self.undetermined!r} is under-determined by probes "
                f"{list(self.probes)!r}"
            )
        rhs = [runs]
        for label in self.probes:
            rhs.append(int(probe_counts.get(label, 0)))
        for row in self.consistency:
            if sum(a * rhs[j] for j, a in row):
                raise ReconstructionError(
                    "probe counts are inconsistent with flow conservation"
                )
        values = self._kernel(rhs)
        denominator = self.denominator
        if min(values, default=0) < 0 or (
            denominator != 1 and any(v % denominator for v in values)
        ):
            self._reject(values)
        if denominator != 1:
            values = [v // denominator for v in values]
        n = len(self.blocks)
        node_freq = {
            label: count for label, count in zip(self.blocks, values) if count
        }
        if self.edge_map is None:
            return node_freq, None
        edge_freq = {
            edge: flow for edge, flow in zip(self.real_edges, values[n:]) if flow
        }
        return node_freq, edge_freq

    def _reject(self, values) -> None:
        """Raise for the first value that is not a non-negative integer
        (*values* are numerators over the denominator)."""
        names = [("block", b) for b in self.blocks]
        names += [("edge", e) for e in self.real_edges]
        for (kind, name), total in zip(names, values):
            value = Fraction(total, self.denominator)
            if value.denominator != 1 or value < 0:
                raise ReconstructionError(
                    f"{kind} {name!r} reconstructed to {value}, not a "
                    "non-negative integer: corrupt probe counts"
                )
