"""Recover full execution profiles from sparse probe counts.

The inverse of placement: given the probe counters observed by a sparse
run (and the number of runs they aggregate), solve the flow-conservation
system and emit an :class:`~repro.profiles.profile.ExecutionProfile`
whose ``node_freq`` is *exactly* what full counting would have recorded
— bit-identical, not approximate.  The ``probes`` differential oracle in
``repro.check`` holds this to account on every fuzzed seed.

Edge frequencies are a bonus: they are emitted only when the probe
measurements pin down *every* real edge flow (all-or-nothing, so a
consumer never mixes exact and missing edges); otherwise ``edge_freq``
is left empty.  Node frequencies — the only profile input MC-SSAPRE's
speculation solver reads — are always complete.

Failures are loud: an inconsistent or under-determined system raises
:class:`~repro.profiles.probes.flowsys.ReconstructionError` rather than
returning a plausible-but-wrong profile.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from repro.profiles.probes.placement import ProbePlacement
from repro.profiles.profile import ExecutionProfile


def reconstruct_profile(
    placement: ProbePlacement,
    probe_counts: Mapping[str, int],
    runs: int = 1,
) -> ExecutionProfile:
    """Exact profile for *runs* executions observed through *placement*.

    *probe_counts* maps probed block labels to their summed execution
    counts; labels absent from the mapping count as 0.  Zero-frequency
    entries are dropped from the result so the returned counters compare
    equal — as plain dicts, not just as Counters — to full counting,
    which never records a zero.
    """
    if runs < 0:
        raise ValueError(f"runs must be non-negative, got {runs}")
    if not placement.probe_set.issuperset(probe_counts):
        unknown = set(probe_counts) - placement.probe_set
        raise ValueError(
            f"counts supplied for unprobed blocks {sorted(unknown)!r}"
        )
    node_freq, edge_freq = placement.system.solve(probe_counts, runs)
    return ExecutionProfile(
        node_freq=Counter(node_freq), edge_freq=Counter(edge_freq or {})
    )
