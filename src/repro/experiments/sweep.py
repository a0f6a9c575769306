"""The one path of the Monte-Carlo sweeps: a campaign spec, run and tabulated.

The Theorem 3.2 coverage sweep, the Section 5 radius sweep and the speed and
stalling scenario sweeps each declare their work as a
:class:`~repro.campaign.spec.CampaignSpec` and hand it to :func:`run_sweep`.
It runs the campaign with :func:`~repro.campaign.orchestrator.run_campaign`
and builds the table from the stored columns.  Without a campaign directory
the campaign runs in a temporary directory that is removed afterwards, so a
sweep is the same pure function of its spec (position-spawned seeds) whether
its columns are kept or not.
"""

from __future__ import annotations

import contextlib
import dataclasses
import tempfile
from typing import Optional, Sequence, Tuple

from repro.campaign import CampaignError, CampaignStore, run_campaign, status_rows
from repro.experiments.report import ExperimentResult


def with_event_engine(spec):
    """``spec`` with every shard routed to the per-instance event engine.

    The event-engine cross-check of a float-timebase sweep: a shard carrying
    the ``engine`` option runs each instance through
    :class:`~repro.sim.engine.RendezvousSimulator`.
    """
    return dataclasses.replace(spec, simulator={**spec.simulator, "engine": "event"})


def run_sweep(
    spec,
    campaign_dir: Optional[str],
    columns: Sequence[str],
    grid: Optional[Tuple[str, Sequence[float]]] = None,
) -> ExperimentResult:
    """Run ``spec`` as a campaign and return one row per (class, arm) cell.

    Rows are class-major in spec order.  Each carries the class as
    ``label``, the ``columns`` of the cell's stored aggregate and, with
    ``grid = (key, values)``, the arm's grid value (one value per arm) under
    ``key``.  ``campaign_dir`` keeps the columns there, where a re-run
    resumes instead of recomputing; ``None`` runs in a temporary directory.
    """
    with contextlib.ExitStack() as stack:
        directory = campaign_dir
        if directory is None:
            directory = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-sweep-"))
        # In a temporary directory nothing resumes a quarantined shard, so
        # the first failure ends the sweep instead of being retried.
        stats = run_campaign(directory, spec, max_attempts=1 if campaign_dir is None else 3)
        if not stats.complete:
            # The quarantine entry holds the shard's traceback; the message
            # carries it out before a temporary directory is removed.
            failed = CampaignStore(directory).failed_shards()
            reason = next(iter(failed.values()), {}).get("error", "interrupted")
            raise CampaignError(f"sweep {spec.name!r} did not complete: {reason}")
        cells = {(cell["arm"], cell["class"]): cell for cell in status_rows(directory)["cells"]}
    rows = []
    for cls in spec.classes:
        for index, arm in enumerate(spec.arms):
            cell = cells[(arm.label, cls)]
            row = {"label": cls}
            if grid is not None:
                row[grid[0]] = grid[1][index]
            row.update((key, cell[key]) for key in columns)
            rows.append(row)
    result = ExperimentResult(name=spec.name, rows=rows)
    if campaign_dir is not None:
        result.add_note(
            f"Campaign mode: columns stored under {campaign_dir} "
            f"[{spec.digest()}]; re-running resumes instead of recomputing."
        )
    simulator = spec.simulator
    result.add_note(
        f"Algorithm: {', '.join(sorted({arm.algorithm for arm in spec.arms}))}; "
        f"engine={simulator.get('engine', 'auto')}; "
        f"timebase={simulator.get('timebase', 'float')}; budgets: "
        f"max_time={simulator['max_time']:g}, max_segments={simulator['max_segments']}."
    )
    return result
