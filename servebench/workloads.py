"""Seeded request streams for the two workloads.

Everything here runs before timing starts: program generation, the
printed request sources, and the reference answers.  A reference answer
is the reference interpreter run on the generator's own ``Function``,
never on the text the service parses, so a printer or parser defect
shows up as a wrong answer instead of agreeing with itself.  The cost
baseline of the quality ratios is the *prepared* (normalised,
unoptimised) generator function run on the same arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bench.generator import generate_program, perturbed_args, random_args
from repro.check.driver import SHAPES, spec_for_shape
from repro.ir.printer import format_function
from repro.pipeline import prepare
from repro.profiles.compiled import run_compiled
from repro.profiles.interp import run_function
from repro.serve.server import CompileRequest

#: Distinct programs in the pool both workloads serve: eight of each
#: generator shape.
POOL_SIZE = 32

#: Argument vectors served per pool program.  probes-adapt warms every
#: key with exactly these vectors (one tier-0 run each, the adaptation
#: tier's default warm-up of 4), then serves them in the same cycle, so
#: the live profile keeps the promotion baseline and never drifts.
ARGS_PER_PROGRAM = 4

#: Round-robin cycles in one timed pass of probes-adapt (a pass is
#: POOL_SIZE x ARGS_PER_PROGRAM x CYCLES requests).
CYCLES = 4

#: Generator seed of cold-compile's warm-up program (outside the pool).
WARMUP_PROGRAM_SEED = 900_000

#: Step budget of every request and reference run, far above what any
#: pool program takes, so a budget never decides an answer.
MAX_STEPS = 50_000_000


@dataclass(frozen=True)
class Program:
    """One distinct program of a stream."""

    #: Blocks of the prepared function (the CFG the optimiser sees).
    blocks: int
    #: Statements of the prepared function (the static-size baseline).
    size: int


@dataclass(frozen=True)
class Item:
    """One request together with everything needed to check its answer."""

    request: CompileRequest
    program: str
    #: ``(return_value, output)`` of the reference interpreter.
    expected: tuple
    #: Dynamic cost of the unoptimised prepared function on these args.
    base_cost: int


@dataclass
class Stream:
    """A workload's whole seeded input: set-up requests and one pass."""

    workload: str
    seed: int
    #: Requests served during set-up (not timed).
    warmup: list[Item]
    #: One pass of timed requests, served in this order.
    timed: list[Item]
    programs: dict[str, Program] = field(default_factory=dict)
    #: ``served_by`` every timed response must carry.
    timed_tier: str = "memory"
    #: True when the service runs the adaptation tier with probes.
    adaptive: bool = False


def _item(request: CompileRequest, name: str, func, prepared, args) -> Item:
    expected = run_function(func, list(args), MAX_STEPS).observable()
    # The cost baseline is no answer check, so it may come from the
    # compiled engine (bit-identical RunResults, several times faster).
    base_cost = run_compiled(prepared, list(args), MAX_STEPS).dynamic_cost
    return Item(request, name, expected, base_cost)


def _program(prepared) -> Program:
    return Program(len(prepared), prepared.statement_count())


def cold_compile(seed: int) -> Stream:
    """One mc-ssapre request with a training run per program of the
    pool, in seeded order; every pass compiles each program afresh.

    The programs and their train and ref argument vectors do not change
    with the seed: they are the pool's, with the vectors drawn at input
    seed 0.  The seed draws only the request order (and, through
    ``run.py``, the ``PYTHONHASHSEED``).  The warm-up request compiles
    one more program that is not in the pool, on inputs drawn the same
    way, so every timed request is still a miss.
    """
    programs, items = _pool(seed, 0, 1, "full")
    stream = Stream("cold-compile", seed, [], [row[0] for row in items],
                    programs, timed_tier="compile")
    spec = spec_for_shape("cint", WARMUP_PROGRAM_SEED)
    generated = generate_program(spec)
    prepared = prepare(generated.func)
    inputs = _inputs(spec, 0, 2)
    request = CompileRequest(
        source=format_function(generated.func),
        args=tuple(inputs[1]),
        variant="mc-ssapre",
        train_args=tuple(inputs[0]),
        max_steps=MAX_STEPS,
    )
    stream.warmup.append(
        _item(request, spec.name, generated.func, prepared, inputs[1])
    )
    return stream


def _inputs(spec, seed: int, n: int) -> list[list[int]]:
    """``repro.check``'s argument vectors, drawn afresh for each workload
    seed: index 0 trains, odd indices are correlated with it, even ones
    independent."""
    shift = 7919 * seed
    train = random_args(spec, seed=101 + shift)
    inputs = [train]
    for i in range(1, n):
        if i % 2:
            inputs.append(perturbed_args(spec, train, seed=200 + i + shift))
        else:
            inputs.append(random_args(spec, seed=300 + i + shift))
    return inputs


def _pool(
    seed: int, input_seed: int, vectors: int, profiling: str
) -> tuple[dict[str, Program], list[list[Item]]]:
    """The pool ``repro.serve.loadgen`` builds at seed 0 with ``POOL_SIZE``
    unique programs: fuzz-shape programs cycling over every generator
    shape (array loads and stores included), each served with *vectors*
    argument vectors drawn at *input_seed*, as ``mc-ssapre`` requests
    with the given *profiling*.  One row of items per program, the rows
    in an order drawn from *seed*.

    The programs do not change with the seed.  Drawing them from the
    seed moved the median request latency from seed to seed by 34%
    (the flow-system solve grows with the CFG's cycle space) as the
    interquartile share of the median, over seeds 1-5 -- more than any
    change being measured."""
    programs: dict[str, Program] = {}
    items: list[list[Item]] = []
    for i in range(POOL_SIZE):
        shape = SHAPES[i % len(SHAPES)]
        spec = spec_for_shape(shape, i)
        generated = generate_program(spec)
        prepared = prepare(generated.func)
        inputs = _inputs(spec, input_seed, 1 + vectors)
        source = format_function(generated.func)
        programs[spec.name] = _program(prepared)
        row = []
        for args in inputs[1:]:
            request = CompileRequest(
                source=source,
                args=tuple(args),
                variant="mc-ssapre",
                train_args=tuple(inputs[0]),
                max_steps=MAX_STEPS,
                profiling=profiling,
            )
            row.append(_item(request, spec.name, generated.func, prepared, args))
        items.append(row)
    random.Random(f"pool/{seed}").shuffle(items)
    return programs, items


def _cycle(items: list[list[Item]]) -> list[Item]:
    """One round-robin cycle: every program once with its first vector,
    then every program with its second, and so on."""
    return [row[k] for k in range(ARGS_PER_PROGRAM) for row in items]


def probes_adapt(seed: int) -> Stream:
    """A pool served through the adaptation tier with minimum-coverage
    probes.  Set-up sends every key its ``ARGS_PER_PROGRAM`` tier-0
    runs, which schedules exactly one promotion build per key; timed
    traffic repeats the same vectors in the same cycle (no phase shift),
    so each request runs the bound sparse artifact, reconstructs its
    profile, folds it and runs the drift check without ever drifting."""
    programs, items = _pool(seed, seed, ARGS_PER_PROGRAM, "probes")
    cycle = _cycle(items)
    return Stream(
        "probes-adapt", seed, cycle, cycle * CYCLES, programs, adaptive=True
    )


BUILDERS = {
    "cold-compile": cold_compile,
    "probes-adapt": probes_adapt,
}
