"""repro — reproduction of *Almost Universal Anonymous Rendezvous in the Plane*.

The package implements, from scratch, the full model of the SPAA 2020 paper by
Bouchard, Dieudonné, Pelc and Petit: anonymous agents in the plane with
private coordinate systems, clock rates, speeds and wake-up times; a
continuous-time rendezvous simulator; the paper's algorithm
``AlmostUniversalRV`` together with the procedures it builds on; the exact
feasibility characterization of Theorem 3.1; and the exception-set analysis of
Section 4.

Quickstart
----------
>>> from repro import Instance, simulate, LinearProbe, classify
>>> import math
>>> inst = Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2, chi=1)
>>> classify(inst).value
'type-4'
>>> simulate(inst, LinearProbe()).met
True

The two simulation engines
--------------------------
Two backends answer the rendezvous question:

* the **event engine** (``simulate(...)`` / ``RendezvousSimulator`` with the
  default ``engine="event"``) advances window by window in Python.  Use it
  for exact ``Fraction`` timestamps (S1/S2 boundary runs, the paper's
  ``2**(15 i^2)`` waits), trajectory recording, and anything that needs the
  authoritative timebase.
* the **vectorized batch engine** (``simulate_batch(instances, algorithm)``,
  or ``engine="vectorized"``) compiles trajectories into columnar numpy
  tables and solves all window quadratics of a whole campaign in bulk, with
  adaptive horizons to keep the event engine's early-exit economics.  Float
  timebase only; outcomes match the event engine to 1e-9 relative tolerance
  (pinned by ``tests/test_sim_batch_parity.py``) at one to two orders of
  magnitude higher throughput (see ``BENCH_engine.json``).

Monte-Carlo campaigns (``repro campaign``, the Theorem 3.1/3.2 experiments,
``repro experiment --engine ...``) route each shard once
(``parallel.runner.BatchRunner``): one batch-engine call where it applies,
the event engine instance by instance where it does not.
"""

from repro.core import (
    AgentSpec,
    AgentUnits,
    CanonicalGeometry,
    FeasibilityClause,
    Frame,
    Instance,
    InstanceClass,
    canonical_geometry,
    canonical_line,
    classify,
    feasibility_clause,
    feasibility_margin,
    instance_type,
    is_covered_by_universal,
    is_exception,
    is_feasible,
)
from repro.sim import (
    AsymmetricOutcome,
    ExactTimebase,
    FloatTimebase,
    RendezvousSimulator,
    SimulationResult,
    TerminationReason,
    simulate,
    simulate_asymmetric,
    simulate_batch,
    simulate_batch_asymmetric,
)
from repro.algorithms import (
    AlignedDelayWalk,
    Algorithm,
    AlmostUniversalRV,
    AsynchronousWaitAndSweep,
    CGKK,
    CompactSchedule,
    DedicatedRendezvous,
    Latecomers,
    Lemma39Boundary,
    LinearCowWalk,
    LinearProbe,
    OppositeChiralityLineSearch,
    PaperSchedule,
    PlanarCowWalk,
    StayPut,
    available_algorithms,
    dedicated_witness,
    get_algorithm,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Instance",
    "AgentSpec",
    "AgentUnits",
    "Frame",
    "CanonicalGeometry",
    "canonical_geometry",
    "canonical_line",
    "InstanceClass",
    "classify",
    "instance_type",
    "FeasibilityClause",
    "feasibility_clause",
    "feasibility_margin",
    "is_feasible",
    "is_covered_by_universal",
    "is_exception",
    # simulation
    "simulate",
    "simulate_batch",
    "simulate_asymmetric",
    "simulate_batch_asymmetric",
    "AsymmetricOutcome",
    "RendezvousSimulator",
    "SimulationResult",
    "TerminationReason",
    "FloatTimebase",
    "ExactTimebase",
    # algorithms
    "Algorithm",
    "AlmostUniversalRV",
    "PaperSchedule",
    "CompactSchedule",
    "CGKK",
    "Latecomers",
    "LinearCowWalk",
    "PlanarCowWalk",
    "StayPut",
    "LinearProbe",
    "AsynchronousWaitAndSweep",
    "AlignedDelayWalk",
    "OppositeChiralityLineSearch",
    "Lemma39Boundary",
    "DedicatedRendezvous",
    "dedicated_witness",
    "available_algorithms",
    "get_algorithm",
]
