"""Minimum-coverage profiling: optimal probe placement plus exact
flow-conservation count reconstruction.

See ``docs/PROFILING.md`` for the design.  The subsystem has three
layers, importable piecemeal:

* :mod:`~repro.profiles.probes.flowsys` — the augmented-CFG circulation
  space, exact rational linear algebra, and the fixed reconstruction
  map each placement factors once;
* :mod:`~repro.profiles.probes.placement` — the matroid-greedy minimum
  probe set (minimum-size *and* minimum-cost under a training profile),
  with loud refusal outside the certified envelope;
* :mod:`~repro.profiles.probes.reconstruct` — probe counts back to a
  full, bit-exact node-frequency profile.

:mod:`~repro.profiles.probes.runners` bundles them into one-call sparse
execution with automatic full-counting fallback.
"""

from repro.profiles.probes.flowsys import FlowSystem, ReconstructionError
from repro.profiles.probes.placement import (
    MAX_BLOCKS,
    PlacementError,
    ProbePlacement,
    REFUSAL_REASONS,
    cfg_shape,
    place_probes,
)
from repro.profiles.probes.reconstruct import reconstruct_profile
from repro.profiles.probes.runners import (
    ProbedRun,
    run_probed,
    try_place_probes,
)

__all__ = [
    "FlowSystem",
    "MAX_BLOCKS",
    "PlacementError",
    "ProbePlacement",
    "ProbedRun",
    "REFUSAL_REASONS",
    "ReconstructionError",
    "cfg_shape",
    "place_probes",
    "reconstruct_profile",
    "run_probed",
    "try_place_probes",
]
