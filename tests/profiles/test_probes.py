"""Minimum-coverage profiling: placement, reconstruction, fallbacks.

The subsystem's contract (docs/PROFILING.md): probe placement never
exceeds the spanning-tree bound ``|E| - |V| + 1``, reconstruction via
flow conservation is *bit-identical* to full counting on both engines,
refusals (multi-exit, no-exit, oversized CFGs) are machine-readable and
fall back to full counting, and broken inputs fail loudly instead of
producing a plausible-but-wrong profile.
"""

from __future__ import annotations

import pickle

import pytest

from fractions import Fraction

import repro.profiles.probes.placement as placement_module
from repro.bench.generator import generate_program, random_args
from repro.bench.workloads import (
    ALL_BENCHMARKS,
    COMPOSITE,
    MEMORY,
    load_workload,
)
from repro.check.driver import SHAPES, spec_for_shape
from repro.ir.builder import FunctionBuilder
from repro.pipeline import prepare
from repro.profiles.compiled import compile_function
from repro.profiles.interp import run_function
from repro.profiles.probes import (
    MAX_BLOCKS,
    FlowSystem,
    PlacementError,
    ProbePlacement,
    ReconstructionError,
    cfg_shape,
    place_probes,
    reconstruct_profile,
    run_probed,
    try_place_probes,
)
from repro.profiles.probes.flowsys import CirculationSpace

from tests.conftest import build_diamond, build_straightline, build_while_loop


def build_multi_exit():
    """Two return blocks: outside the certified placement envelope."""
    b = FunctionBuilder("twoexit", params=["c"])
    b.block("entry")
    b.branch("c", "yes", "no")
    b.block("yes")
    b.ret(1)
    b.block("no")
    b.ret(0)
    return b.build()


def build_no_exit():
    """An infinite loop: no return block at all."""
    b = FunctionBuilder("spin", params=["n"])
    b.block("entry")
    b.jump("loop")
    b.block("loop")
    b.jump("loop")
    return b.build()


def build_branchy_loop():
    """A loop with a two-arm branch in its body: ``(n, flag)`` params."""
    b = FunctionBuilder("branchy", params=["n", "flag"])
    b.block("entry")
    b.copy("i", 0)
    b.copy("s", 0)
    b.jump("head")
    b.block("head")
    b.assign("c", "lt", "i", "n")
    b.branch("c", "body", "done")
    b.block("body")
    b.branch("flag", "hot", "skip")
    b.block("hot")
    b.assign("s", "add", "s", 2)
    b.jump("latch")
    b.block("skip")
    b.assign("s", "add", "s", 1)
    b.jump("latch")
    b.block("latch")
    b.assign("i", "add", "i", 1)
    b.jump("head")
    b.block("done")
    b.ret("s")
    return b.build()


def build_unreachable():
    """A block no path reaches: placement must ignore it entirely."""
    b = FunctionBuilder("unreach", params=["a"])
    b.block("entry")
    b.assign("x", "add", "a", 1)
    b.jump("exit")
    b.block("island")
    b.assign("y", "add", "a", 2)
    b.jump("exit")
    b.block("exit")
    b.ret("x")
    return b.build()


class TestPlacement:
    def test_diamond_within_bound_and_deterministic(self):
        func = build_diamond()
        placement = place_probes(func)
        assert len(placement.probes) <= placement.bound
        assert placement.bound == placement.n_edges - len(placement.blocks) + 1
        assert placement == place_probes(func)

    def test_single_block_needs_no_probes(self):
        placement = place_probes(build_straightline())
        assert placement.bound == 0
        assert placement.probes == ()

    def test_cheapest_determining_block_wins(self):
        func = build_while_loop()
        profile = run_function(func, [2, 3, 50]).profile
        placement = place_probes(func, profile=profile)
        # entry and done carry no information (every run executes each
        # exactly once, so their counts equal the known run count): the
        # one probe must sit inside the loop, and of the two candidates
        # the greedy picks the cheaper body (50) over the head (51).
        assert placement.probes == ("body",)
        assert profile.node_freq["head"] > profile.node_freq["body"]

    def test_hot_branch_arm_stays_uninstrumented(self):
        func = build_branchy_loop()
        # flag=1: the "hot" arm runs every iteration, "skip" never.
        profile = run_function(func, [40, 1]).profile
        placement = place_probes(func, profile=profile)
        assert len(placement.probes) <= placement.bound
        # The cold arm is in the probe set; the hot arm and the hottest
        # block (the loop head) run uninstrumented.
        assert "skip" in placement.probes
        assert "hot" not in placement.probes
        assert "head" not in placement.probes

    def test_multi_exit_refused(self):
        with pytest.raises(PlacementError) as excinfo:
            place_probes(build_multi_exit())
        assert excinfo.value.reason == "multi-exit"
        placement, reason = try_place_probes(build_multi_exit())
        assert placement is None
        assert reason == "multi-exit"

    def test_no_exit_refused(self):
        with pytest.raises(PlacementError) as excinfo:
            place_probes(build_no_exit())
        assert excinfo.value.reason == "no-exit"

    def test_oversized_cfg_refused(self):
        with pytest.raises(PlacementError) as excinfo:
            place_probes(build_diamond(), max_blocks=2)
        assert excinfo.value.reason == "too-large"
        assert MAX_BLOCKS >= 2

    def test_unreachable_blocks_are_ignored(self):
        func = build_unreachable()
        entry, blocks, edges, exits = cfg_shape(func)
        assert "island" not in blocks
        assert all("island" not in edge for edge in edges)
        placement = place_probes(func)
        assert "island" not in placement.blocks


class TestReconstruction:
    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize("build,args", [
        (build_diamond, [3, 4, 1]),
        (build_diamond, [3, 4, 0]),
        (build_while_loop, [2, 3, 9]),
        (build_straightline, [5, 6]),
        (build_unreachable, [7]),
    ])
    def test_bit_identical_to_full_counting(self, engine, build, args):
        func = build()
        full = run_function(func, list(args))
        probed = run_probed(func, list(args), engine=engine)
        assert probed.placement is not None
        assert probed.fallback_reason is None
        sparse = probed.result
        assert dict(sparse.profile.node_freq) == dict(full.profile.node_freq)
        assert sparse.observable() == full.observable()
        assert sparse.dynamic_cost == full.dynamic_cost
        assert dict(sparse.expr_counts) == dict(full.expr_counts)
        assert sparse.steps == full.steps
        if sparse.profile.edge_freq:
            assert dict(sparse.profile.edge_freq) == dict(
                full.profile.edge_freq
            )

    def test_zero_trip_loop_drops_the_body(self):
        func = build_while_loop()
        full = run_function(func, [1, 2, 0])
        sparse = run_probed(func, [1, 2, 0]).result
        assert "body" not in sparse.profile.node_freq
        assert dict(sparse.profile.node_freq) == dict(full.profile.node_freq)

    def test_reconstructed_edges_satisfy_flow_conservation(self):
        func = build_while_loop()
        probed = run_probed(func, [2, 3, 6])
        profile = probed.result.profile
        if profile.edge_freq:
            assert profile.check_flow_conservation(
                probed.placement.entry
            ) == []

    def test_multiple_runs_aggregate_exactly(self):
        func = build_diamond()
        placement = place_probes(func)
        single = run_probed(func, [3, 4, 1])
        counts = {
            label: 3 * single.result.profile.node_freq[label]
            for label in placement.probes
        }
        profile = reconstruct_profile(placement, counts, runs=3)
        full = run_function(func, [3, 4, 1]).profile
        assert dict(profile.node_freq) == {
            label: 3 * n for label, n in full.node_freq.items()
        }

    def test_merge_round_trip(self):
        func = build_while_loop()
        full_a = run_function(func, [1, 1, 4]).profile
        full_b = run_function(func, [2, 2, 7]).profile
        sparse_a = run_probed(func, [1, 1, 4]).result.profile
        sparse_b = run_probed(func, [2, 2, 7]).result.profile
        full_a.merge(full_b)
        sparse_a.merge(sparse_b)
        assert dict(sparse_a.node_freq) == dict(full_a.node_freq)

    def test_scaled_round_trip(self):
        func = build_while_loop()
        full = run_function(func, [2, 3, 5]).profile.scaled(2.0)
        sparse = run_probed(func, [2, 3, 5]).result.profile.scaled(2.0)
        assert dict(sparse.node_freq) == dict(full.node_freq)


def _dot(row, vec) -> Fraction:
    return sum((a * b for a, b in zip(row, vec) if a), Fraction(0))


def solve_affine(rows, rhs, d):
    """Solve ``rows · c = rhs`` by dense exact Gauss–Jordan elimination;
    return ``(c0, nullspace basis)`` with every free coordinate of the
    particular solution ``c0`` zero.  Independent of the sparse
    elimination the map is factored with."""
    aug = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    pivots = []
    for col in range(d):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
    if any(aug[i][d] for i in range(len(pivots), len(aug))):
        raise ReconstructionError("inconsistent")
    c0 = [Fraction(0)] * d
    for i, col in enumerate(pivots):
        c0[col] = aug[i][d]
    basis = []
    for free in sorted(set(range(d)) - set(pivots)):
        vec = [Fraction(0)] * d
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][free]
        basis.append(vec)
    return c0, basis


def direct_solve(placement, probe_counts, runs):
    """The per-count reconstruction the fixed map replaces, kept as its
    oracle: solve the measurements with :func:`solve_affine` for these counts,
    then evaluate every block and edge against the particular solution,
    refusing any the nullspace leaves free."""
    space = CirculationSpace(
        placement.entry, placement.blocks, placement.edges, placement.exits
    )
    rows = [space.t_row] + [space.node_rows[v] for v in placement.probes]
    rhs = [runs] + [probe_counts.get(v, 0) for v in placement.probes]
    c0, basis = solve_affine(rows, rhs, space.dimension)

    def value(row):
        if any(_dot(row, vec) for vec in basis):
            return None
        exact = _dot(row, c0)
        if exact.denominator != 1 or exact < 0:
            raise ReconstructionError(f"{exact} is not a count")
        return int(exact)

    node_freq = {}
    for label in space.blocks:
        count = value(space.node_rows[label])
        if count is None:
            raise ReconstructionError(f"block {label!r} is under-determined")
        if count:
            node_freq[label] = count
    edge_freq = {}
    for index, edge in enumerate(space.real_edges):
        flow = value(space.edge_row(index))
        if flow is None:
            return node_freq, None
        if flow:
            edge_freq[edge] = flow
    return node_freq, edge_freq


def _parity_cases():
    """(name, prepared function, ref args, training args) over the whole
    workload catalog plus fuzz seeds of every generator shape."""
    for name in ALL_BENCHMARKS + COMPOSITE + MEMORY:
        yield name, lambda n=name: _catalog_case(n)
    for shape in SHAPES:
        for seed in range(6):
            yield f"{shape}{seed}", lambda s=shape, k=seed: _fuzz_case(s, k)


def _catalog_case(name):
    workload = load_workload(name)
    return (
        prepare(workload.program.func), workload.ref_args,
        workload.train_args,
    )


def _fuzz_case(shape, seed):
    spec = spec_for_shape(shape, seed)
    return (
        prepare(generate_program(spec).func),
        random_args(spec, seed=300), random_args(spec, seed=101),
    )


class TestMapParity:
    """The fixed map against the direct per-count solve: identical node
    and edge frequencies (and identical to full counting) on every
    catalog workload placement accepts and on fuzz seeds of every
    shape, for one run and for aggregated runs."""

    @pytest.mark.parametrize(
        "build", [b for _, b in _parity_cases()],
        ids=[n for n, _ in _parity_cases()],
    )
    def test_map_matches_direct_solve(self, build):
        prepared, ref_args, train_args = build()
        program = compile_function(prepared)
        train = program.run(train_args, max_steps=50_000_000).profile
        placement, reason = try_place_probes(prepared, profile=train)
        if placement is None:
            assert reason == "too-large" or reason == "multi-exit"
            pytest.skip(f"placement refused: {reason}")
        full = program.run(ref_args, max_steps=50_000_000).profile
        for runs, scale in ((1, 1), (3, 3)):
            counts = {
                label: scale * full.node_freq.get(label, 0)
                for label in placement.probes
            }
            mapped = placement.system.solve(counts, runs)
            assert mapped == direct_solve(placement, counts, runs)
            assert mapped[0] == {
                label: scale * n for label, n in full.node_freq.items()
            }
            if mapped[1] is not None:
                assert mapped[1] == {
                    edge: scale * n for edge, n in full.edge_freq.items()
                }


def _rehydrated(placement):
    return pickle.loads(pickle.dumps(placement))


def _blind_diamond():
    """The diamond with its probe set stripped: the branch arm split is
    then unobservable."""
    placement = place_probes(build_diamond())
    assert placement.probes  # the diamond genuinely needs a probe
    return ProbePlacement(
        entry=placement.entry, blocks=placement.blocks,
        edges=placement.edges, exits=placement.exits, probes=(),
    )


def _redundant_diamond():
    """Probes on both diamond arms: their counts must sum to the runs."""
    placement = place_probes(build_diamond())
    return ProbePlacement(
        entry=placement.entry, blocks=placement.blocks,
        edges=placement.edges, exits=placement.exits,
        probes=("left", "right"),
    )


def _halves():
    """A hand-built map over denominator 2.  Flow systems of CFGs factor
    over denominator 1, but exact division is checked for any map."""
    return FlowSystem(
        blocks=("a",), real_edges=(), probes=("p",), denominator=2,
        node_map=(((1, 1),),), edge_map=(),
    )


class TestLoudFailures:
    """Every failure stays loud under the fixed map, on a fresh
    placement and on one that was pickled and rehydrated."""

    def test_under_determined_system_raises(self):
        # The solver must refuse, not guess.
        blind = _blind_diamond()
        with pytest.raises(ReconstructionError, match="under-determined"):
            reconstruct_profile(blind, {}, runs=1)
        with pytest.raises(ReconstructionError):
            direct_solve(blind, {}, 1)

    def test_inconsistent_counts_raise(self):
        # (1, 1) on the two arms against runs=1 is a contradiction.
        redundant = _redundant_diamond()
        with pytest.raises(ReconstructionError, match="inconsistent"):
            reconstruct_profile(redundant, {"left": 1, "right": 1}, runs=1)
        with pytest.raises(ReconstructionError):
            direct_solve(redundant, {"left": 1, "right": 1}, 1)
        # The same redundant probes agree with conservation on (1, 0).
        profile = reconstruct_profile(redundant, {"left": 1}, runs=1)
        assert profile.node_freq["left"] == 1
        assert "right" not in profile.node_freq

    def test_negative_result_raises(self):
        # One probe on a diamond arm: the other arm is runs - probe, so
        # an arm count above the run count is corrupt.
        placement = place_probes(build_diamond())
        (probe,) = placement.probes
        with pytest.raises(ReconstructionError, match="non-negative"):
            reconstruct_profile(placement, {probe: 2}, runs=1)
        with pytest.raises(ReconstructionError):
            direct_solve(placement, {probe: 2}, 1)

    def test_non_integral_result_raises(self):
        halves = _halves()
        assert halves.solve({"p": 4}, 1) == ({"a": 2}, {})
        with pytest.raises(ReconstructionError, match="3/2"):
            halves.solve({"p": 3}, 1)

    def test_counts_for_unprobed_blocks_rejected(self):
        placement = place_probes(build_diamond())
        with pytest.raises(ValueError):
            reconstruct_profile(placement, {"not-a-probe": 1}, runs=1)

    def test_probes_outside_the_cfg_rejected(self):
        placement = place_probes(build_diamond())
        with pytest.raises(ValueError, match="not blocks"):
            ProbePlacement(
                entry=placement.entry, blocks=placement.blocks,
                edges=placement.edges, exits=placement.exits,
                probes=("nowhere",),
            )

    def test_rehydrated_placements_fail_alike(self):
        blind = _rehydrated(_blind_diamond())
        with pytest.raises(ReconstructionError, match="under-determined"):
            reconstruct_profile(blind, {}, runs=1)
        redundant = _rehydrated(_redundant_diamond())
        with pytest.raises(ReconstructionError, match="inconsistent"):
            reconstruct_profile(redundant, {"left": 1, "right": 1}, runs=1)
        placement = _rehydrated(place_probes(build_diamond()))
        (probe,) = placement.probes
        with pytest.raises(ReconstructionError, match="non-negative"):
            reconstruct_profile(placement, {probe: 2}, runs=1)
        with pytest.raises(ValueError):
            reconstruct_profile(placement, {"not-a-probe": 1}, runs=1)
        with pytest.raises(ReconstructionError, match="3/2"):
            _rehydrated(_halves()).solve({"p": 3}, 1)

    def test_rehydrated_placement_never_factors(self, monkeypatch):
        placement = place_probes(build_while_loop())
        clone = _rehydrated(placement)
        program = _rehydrated(compile_function(
            prepare(build_while_loop()), probes=placement
        ))

        def refuse(*_args, **_kwargs):
            raise AssertionError("factored on the run path")

        monkeypatch.setattr(FlowSystem, "factor", refuse)
        monkeypatch.setattr(placement_module, "_space_for", refuse)
        assert clone == placement
        assert clone.system == placement.system
        full = run_function(build_while_loop(), [2, 3, 7]).profile
        counts = {v: full.node_freq.get(v, 0) for v in clone.probes}
        assert dict(reconstruct_profile(clone, counts).node_freq) == dict(
            full.node_freq
        )
        assert program.run([2, 3, 7]).observable() == run_function(
            build_while_loop(), [2, 3, 7]
        ).observable()

    def test_negative_runs_rejected(self):
        placement = place_probes(build_diamond())
        with pytest.raises(ValueError):
            reconstruct_profile(placement, {}, runs=-1)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_probed(build_diamond(), [1, 2, 3], engine="jit")


class TestFallback:
    def test_multi_exit_falls_back_to_full_counting(self):
        func = build_multi_exit()
        probed = run_probed(func, [1])
        assert probed.placement is None
        assert probed.fallback_reason == "multi-exit"
        full = run_function(func, [1])
        assert dict(probed.result.profile.node_freq) == dict(
            full.profile.node_freq
        )
        # The fallback *is* full counting, edges included.
        assert dict(probed.result.profile.edge_freq) == dict(
            full.profile.edge_freq
        )


class TestSparseCompiledProgram:
    def test_pickle_round_trip_keeps_probes(self):
        prepared = prepare(build_while_loop())
        placement = place_probes(prepared)
        program = compile_function(prepared, probes=placement)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.probes == placement
        a = program.run([2, 3, 8])
        b = clone.run([2, 3, 8])
        assert dict(a.profile.node_freq) == dict(b.profile.node_freq)
        assert a.observable() == b.observable()

    def test_sparse_program_counts_only_probed_blocks(self):
        prepared = prepare(build_while_loop())
        placement = place_probes(prepared)
        program = compile_function(prepared, probes=placement)
        # The generated source bumps exactly one counter per probe and
        # carries no edge counters at all.
        assert program.source.count("] += 1") == len(placement.probes)
