"""Algorithm protocol and the knowledge model for dedicated algorithms.

Algorithms are authored through ``program_for(instance, spec, role)``; the
simulator reads the same program as column blocks through
``program_blocks_for``, which adapts ``program_for`` by default.  The two
base classes below specialize that protocol:

* :class:`UniversalAlgorithm` — identical program for both agents; subclasses
  implement :meth:`UniversalAlgorithm.program` which receives *nothing*.  This
  structurally enforces the anonymity constraint of the model: a universal
  algorithm cannot even accidentally peek at the instance.
* :class:`DedicatedAlgorithm` — per-instance algorithms in the sense of the
  paper's feasibility definition ("there exists an algorithm, even
  specifically designed for this instance given as input, that guarantees
  rendezvous").  Subclasses implement
  :meth:`DedicatedAlgorithm.program_with_knowledge` and receive an
  :class:`AgentKnowledge` record: the instance tuple plus the local geometric
  quantities an agent can legitimately derive from it in its own frame
  (the canonical line has the same equation in both agents' systems, so the
  vector to its own projection on the canonical line is derivable without
  knowing *which* agent it is — see Lemma 3.9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.core.canonical import canonical_geometry
from repro.core.instance import AgentSpec, Instance
from repro.geometry.vec import Vec2, norm, scale, sub
from repro.motion.instructions import Instruction
from repro.motion.program import ColumnBlock, instruction_blocks
from repro.util.errors import KnowledgeError


@dataclass(frozen=True)
class AgentKnowledge:
    """What a *dedicated* algorithm may use, from the point of view of one agent.

    All local quantities are expressed in the agent's own coordinate system
    and local length units.  The ``instance`` tuple itself is included because
    the paper's feasibility definition hands the instance to the dedicated
    algorithm as input.

    Attributes
    ----------
    instance:
        The instance tuple ``(r, x, y, phi, tau, v, t, chi)``.
    role:
        ``"A"`` or ``"B"`` — carried for bookkeeping; dedicated algorithms must
        only use it through the pre-computed symmetric quantities below, never
        to branch on "am I the early agent".
    r_local:
        Visibility radius expressed in the agent's local length units.
    to_canonical_projection_local:
        Vector (local coordinates / units) from the agent's start to the
        orthogonal projection of that start on the canonical line L.
    canonical_distance_local:
        Length of the previous vector.
    proj_distance:
        ``dist(projA, projB)`` in absolute units.
    initial_distance:
        ``dist((0,0), (x,y))`` in absolute units.
    """

    instance: Instance
    role: str
    r_local: float
    to_canonical_projection_local: Vec2
    canonical_distance_local: float
    proj_distance: float
    initial_distance: float

    @staticmethod
    def for_agent(instance: Instance, spec: AgentSpec, role: str) -> "AgentKnowledge":
        """Compute the knowledge record of one agent for one instance."""
        geometry = canonical_geometry(instance)
        start = spec.start
        projection = geometry.line.project(start)
        to_projection_abs = sub(projection, start)
        unit = spec.units.length_unit
        to_projection_local = scale(
            spec.frame.absolute_vector_to_local(to_projection_abs), 1.0 / unit
        )
        return AgentKnowledge(
            instance=instance,
            role=role,
            r_local=instance.r / unit,
            to_canonical_projection_local=to_projection_local,
            canonical_distance_local=norm(to_projection_local),
            proj_distance=geometry.proj_distance,
            initial_distance=instance.initial_distance,
        )


class Algorithm:
    """Base class: anything with a ``program_for`` and a ``name``."""

    #: Human-readable identifier used in results and experiment tables.
    name: str = "algorithm"

    #: Opt-in declaration that two algorithm objects with equal (hashable)
    #: keys emit *identical* instruction streams.  The vectorized batch
    #: engine uses it to share consumed program prefixes across calls;
    #: ``None`` (the default) disables any cross-call sharing.
    program_cache_key: Optional[tuple] = None

    #: Opt-in declaration that any two objects of this class are
    #: *interchangeable* for batch grouping: ``program_for`` is a pure
    #: function of ``(instance, spec, role)`` and never depends on per-object
    #: state, so one object can stand in for another of the same class in a
    #: grouped ``simulate_batch`` call (see
    #: :func:`repro.sim.batch.batch_group_key`).  The default ``False`` is
    #: always safe: an undeclared algorithm — stateless or not — simply
    #: groups only with itself (correct, just smaller batches).  Classes
    #: whose constructor takes behaviour-changing parameters (schedules,
    #: distances, ...) must *not* set this.
    batch_interchangeable: bool = False

    def program_for(
        self, instance: Instance, spec: AgentSpec, role: str
    ) -> Iterable[Instruction]:
        """Return the instruction stream of the agent ``role`` for ``instance``."""
        raise NotImplementedError

    def program_blocks_for(
        self, instance: Instance, spec: AgentSpec, role: str
    ) -> Iterable[ColumnBlock]:
        """The same program as :meth:`program_for`, as column blocks.

        What both engines read.  The default adapts the instruction stream;
        algorithms with a columnar structure override it to skip the
        per-instruction objects.
        """
        return instruction_blocks(self.program_for(instance, spec, role))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class UniversalAlgorithm(Algorithm):
    """An algorithm that is the same program for every agent and instance."""

    #: Universal algorithms never receive instance knowledge.
    requires_knowledge = False

    def program(self) -> Iterator[Instruction]:
        """The (usually infinite) instruction stream executed by every agent."""
        raise NotImplementedError

    def program_blocks(self) -> Iterator[ColumnBlock]:
        """:meth:`program` as column blocks (the instruction adapter by default)."""
        return instruction_blocks(self.program())

    def program_for(
        self, instance: Instance, spec: AgentSpec, role: str
    ) -> Iterable[Instruction]:
        # Deliberately ignore all arguments: anonymity is enforced here.
        return self.program()

    def program_blocks_for(
        self, instance: Instance, spec: AgentSpec, role: str
    ) -> Iterable[ColumnBlock]:
        return self.program_blocks()


class DedicatedAlgorithm(Algorithm):
    """A per-instance algorithm in the sense of the feasibility definition."""

    requires_knowledge = True

    def program_with_knowledge(self, knowledge: AgentKnowledge) -> Iterator[Instruction]:
        """Instruction stream given the agent-local view of the instance."""
        raise NotImplementedError

    def supports(self, instance: Instance) -> bool:
        """Whether this dedicated construction is applicable to ``instance``.

        Subclasses override this with the precondition of their correctness
        argument; the dispatcher :func:`repro.algorithms.dedicated.dedicated_witness`
        uses it to pick a witness.
        """
        return True

    def check_supported(self, instance: Instance) -> None:
        """Raise :class:`KnowledgeError` when the instance is out of scope."""
        if not self.supports(instance):
            raise KnowledgeError(
                f"{self.name} is not applicable to instance {instance.describe()}"
            )

    def program_for(
        self, instance: Instance, spec: AgentSpec, role: str
    ) -> Iterable[Instruction]:
        self.check_supported(instance)
        knowledge = AgentKnowledge.for_agent(instance, spec, role)
        return self.program_with_knowledge(knowledge)


class FunctionAlgorithm(Algorithm):
    """Adapter turning a bare generator function into an algorithm object.

    The callable receives ``(instance, spec, role)``; use
    ``FunctionAlgorithm(lambda *_: my_program(), "my-name")`` for universal
    programs written as plain generator functions (handy in tests).
    """

    def __init__(
        self,
        factory: Callable[[Instance, AgentSpec, str], Iterable[Instruction]],
        name: Optional[str] = None,
    ) -> None:
        self._factory = factory
        self.name = name or getattr(factory, "__name__", "function-algorithm")

    def program_for(
        self, instance: Instance, spec: AgentSpec, role: str
    ) -> Iterable[Instruction]:
        return self._factory(instance, spec, role)
