"""Columnar placement and job scheduling over :class:`FleetArrays`.

:class:`BatchPlacementEngine` runs the placement policies of
:mod:`repro.cluster.placement` and the schedulers of
:mod:`repro.cluster.jobs`, under the same bit-identity contract as
the batch SSJ engine: the per-server scalar loops it replaced live on
in :mod:`repro.cluster.reference` as the oracle, and the parity tests
assert *exact* equality of every output object on the seed corpus
fleet.

The structure of the speedup: construction batches the ranking keys
and every server's spot-capacity inversion through the
:class:`FleetArrays` kernels, and keeps their answers as Python lists.
A query then runs no numpy at all (unless it leaves more than
:data:`_ROW_KERNEL_MAX` rows open): the genuinely sequential take/fit
loops are pure-Python float arithmetic over those lists, because their
running-remainder accumulation order is part of the bit-identity
contract (``np.cumsum``'s pairwise summation would drift in the last
ulp), and one walk over the assigned rows reads each row's known
answer.  Utilization inversions -- a 50-step bisection per server in
the scalar code -- are mostly not run at all: every ranked server but
the marginal one takes exactly its spot or full capacity, so a
placement inverts only the rows left open (typically one) through the
single-row kernels, and the power-cap search probes on totals and
materializes one outcome.  The single-row inversion
(:func:`~repro.cluster.fleet_arrays._invert_row`) looks up one grid
segment per halving and runs only the first few of the 50; once the
interval sits inside one segment it solves the rest in closed form,
bit-identical to halving on.

Which fleets reach this engine is decided in one place,
:func:`repro.cluster.engines.fleet_engine`: every fleet the columns
can represent, however small.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.cluster.fleet_arrays import (
    FleetArrays,
    _bisect_rows,
    _interp_row,
    _interp_rows,
    _invert_row,
)
from repro.cluster.placement import POLICIES, Assignment, PlacementOutcome

#: Up to this many rows are inverted one at a time through the
#: single-row kernels (the open rows of a placement, typically one);
#: more (a construction-time spot inversion) go through one batched
#: bisection, which costs the same 50 numpy rounds for any row count.
_ROW_KERNEL_MAX = 8


def cap_search(
    engine,
    total_capacity: float,
    power_cap_w: float,
    policy: str,
    power_off_unused: bool,
) -> float:
    """The largest probed demand a fleet engine serves under the cap.

    The one cap bisection of the fleet engines: 40 halvings of
    ``[0, total_capacity]`` that probe ``engine.place_totals`` -- the
    same two reductions the outcome's ``total_power_w`` and
    ``satisfied`` run -- so the caller materializes one outcome, at
    the returned demand.  ``low`` moves exactly when a probe fits, so
    ``place(policy, low)`` is the best fitting probe's outcome, and
    the demand-0 outcome when none fits.
    """
    if power_cap_w <= 0.0:
        raise ValueError("power cap must be positive")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    low, high = 0.0, total_capacity
    for _ in range(40):
        mid = 0.5 * (low + high)
        placed, power = engine.place_totals(policy, mid, power_off_unused)
        if power <= power_cap_w and placed >= mid * (1.0 - 1e-6):
            low = mid
        else:
            high = mid
    return low


class BatchPlacementEngine:
    """Vectorized placement/scheduling policies, built once per fleet.

    Reproduces ``pack_to_full_placement``, ``ep_aware_placement``,
    ``max_throughput_under_cap``, and the two ``jobs.py`` schedulers
    bit-identically.  Construction precomputes, as Python lists, the
    ranked orders (stable argsorts on the exact scalar sort keys), the
    per-server capacity/idle columns the sequential loops consume,
    each server's utilization and power at its spot take, and its
    full-load power.
    """

    def __init__(self, fleet):
        self.arrays = FleetArrays.from_fleet(fleet)
        arrays = self.arrays
        # Stable argsort on the negated key == Python's stable
        # descending sort on the same floats.
        self._pack_rows = np.argsort(-arrays.full_load_ee, kind="stable").tolist()
        self._ep_rows = np.argsort(-arrays.peak_ee, kind="stable").tolist()
        self._full_cap = arrays.full_capacity.tolist()
        self._spot_cap = arrays.spot_capacity.tolist()
        self._idle = arrays.idle_power_w.tolist()
        self._full_power = arrays.power[:, -1].tolist()
        self._grid = arrays.load_grid.tolist()
        # Every row's spot take inverted once, so a placement inverts
        # only the rows whose take is neither spot nor full capacity.
        self._spot_util, self._spot_power = self._invert(
            range(len(arrays)), self._spot_cap
        )

    # -- fluid placement (placement.py twin) -------------------------------------

    def pack_to_full(
        self, demand_ops: float, power_off_unused: bool = False
    ) -> PlacementOutcome:
        """Columnar ``pack_to_full_placement``; identical outcome."""
        rows, takes, unused = self._pack(demand_ops, power_off_unused)
        return self._outcome("pack-to-full", demand_ops, rows, takes, unused)

    def ep_aware(
        self, demand_ops: float, power_off_unused: bool = False
    ) -> PlacementOutcome:
        """Columnar ``ep_aware_placement``; identical outcome."""
        rows, takes, unused = self._ep(demand_ops, power_off_unused)
        return self._outcome("ep-aware", demand_ops, rows, takes, unused)

    def place(
        self, policy: str, demand_ops: float, power_off_unused: bool = False
    ) -> PlacementOutcome:
        """Dispatch on a :data:`~repro.cluster.placement.POLICIES` name."""
        if policy == "pack-to-full":
            return self.pack_to_full(demand_ops, power_off_unused)
        if policy == "ep-aware":
            return self.ep_aware(demand_ops, power_off_unused)
        raise ValueError(f"unknown policy {policy!r}")

    def _pack(
        self, demand_ops: float, power_off_unused: bool
    ) -> Tuple[List[int], List[float], float]:
        if demand_ops < 0.0:
            raise ValueError("demand cannot be negative")
        remaining = demand_ops
        rows: List[int] = []
        takes: List[float] = []
        unused = 0.0
        for row in self._pack_rows:
            if remaining <= 0.0:
                if not power_off_unused:
                    unused += self._idle[row]
                continue
            cap = self._full_cap[row]
            # min(remaining, cap), spelled out so the equal case keeps
            # the scalar path's operand choice.
            take = remaining if remaining <= cap else cap
            rows.append(row)
            takes.append(take)
            remaining -= take
        return rows, takes, unused

    def _ep(
        self, demand_ops: float, power_off_unused: bool
    ) -> Tuple[List[int], List[float], float]:
        if demand_ops < 0.0:
            raise ValueError("demand cannot be negative")
        remaining = demand_ops
        rows: List[int] = []
        takes: List[float] = []
        position = {}
        for row in self._ep_rows:
            if remaining <= 0.0:
                break
            cap = self._spot_cap[row]
            take = remaining if remaining <= cap else cap
            position[row] = len(rows)
            rows.append(row)
            takes.append(take)
            remaining -= take
        if remaining > 0.0:
            for row in self._ep_rows:
                if remaining <= 0.0:
                    break
                at = position.get(row)
                already = takes[at] if at is not None else 0.0
                headroom = self._full_cap[row] - already
                extra = remaining if remaining <= headroom else headroom
                if extra <= 0.0:
                    continue
                if at is None:
                    position[row] = len(rows)
                    rows.append(row)
                    takes.append(already + extra)
                else:
                    takes[at] = already + extra
                remaining -= extra
        unused = 0.0
        if not power_off_unused:
            assigned = set(rows)
            # Fleet order, like the scalar generator sum over `fleet`.
            for row in range(len(self._idle)):
                if row not in assigned:
                    unused += self._idle[row]
        return rows, takes, unused

    def _invert(
        self, rows: Sequence[int], takes: Sequence[float]
    ) -> Tuple[List[float], List[float]]:
        """(utilizations, powers) of ``rows`` serving ``takes``.

        The exact scalar pipeline -- the 50-iteration bisection's
        answer, then the power interpolation -- one row at a time
        through the single-row kernels (closed-form inversion) when
        there are few rows, batched otherwise.
        """
        arrays = self.arrays
        if len(rows) > _ROW_KERNEL_MAX:
            index = np.asarray(rows, dtype=np.intp)
            utils = _bisect_rows(
                arrays.load_grid, arrays.ops[index], np.asarray(takes)
            )
            powers = _interp_rows(arrays.load_grid, arrays.power[index], utils)
            return utils.tolist(), powers.tolist()
        grid = self._grid
        utils = [
            _invert_row(grid, arrays.ops[row].tolist(), take)
            for row, take in zip(rows, takes)
        ]
        powers = [
            _interp_row(grid, arrays.power[row].tolist(), utilization)
            for row, utilization in zip(rows, utils)
        ]
        return utils, powers

    def _assignment_columns(
        self, rows: List[int], takes: List[float]
    ) -> Tuple[List[float], List[float]]:
        """(utilizations, powers) of the assigned rows, bitwise scalar.

        A row's answer is a pure function of (row, take), and almost
        every take is known: one equal to the row's spot capacity reads
        the answers precomputed at construction, and a positive one at
        or beyond full capacity pins to 1.0 at full-load power.  One
        walk over the lists sorts the rows; only the open rest --
        typically the one marginal server -- go to :meth:`_invert`.
        """
        spot_cap, spot_util, spot_power = (
            self._spot_cap, self._spot_util, self._spot_power
        )
        full_cap, full_power = self._full_cap, self._full_power
        # Full-load pins by default; open rows are overwritten below.
        utils = [1.0] * len(rows)
        powers = [0.0] * len(rows)
        open_at: List[int] = []
        for at, row in enumerate(rows):
            take = takes[at]
            if take == spot_cap[row]:
                utils[at] = spot_util[row]
                powers[at] = spot_power[row]
            elif take > 0.0 and take >= full_cap[row]:
                powers[at] = full_power[row]
            else:
                open_at.append(at)
        if open_at:
            open_utils, open_powers = self._invert(
                [rows[at] for at in open_at], [takes[at] for at in open_at]
            )
            for at, utilization, power in zip(open_at, open_utils, open_powers):
                utils[at] = utilization
                powers[at] = power
        return utils, powers

    def _outcome(
        self,
        policy: str,
        demand_ops: float,
        rows: List[int],
        takes: List[float],
        unused: float,
    ) -> PlacementOutcome:
        outcome = PlacementOutcome(
            policy=policy, demand_ops=demand_ops, unused_idle_power_w=unused
        )
        if rows:
            utils, powers = self._assignment_columns(rows, takes)
            records = self.arrays.records
            outcome.assignments = [
                Assignment(
                    server=records[row],
                    utilization=utilization,
                    throughput_ops=take,
                    power_w=power,
                )
                for row, utilization, take, power in zip(rows, utils, takes, powers)
            ]
        return outcome

    def place_totals(
        self, policy: str, demand_ops: float, power_off_unused: bool = False
    ) -> Tuple[float, float]:
        """(placed_ops, total_power_w) without materializing outcomes.

        The trace replay only consumes these two totals per step;
        skipping the per-server ``Assignment`` objects keeps the hot
        loop allocation-free.  Both sums run sequentially over the
        assignment-order lists, matching the ``PlacementOutcome``
        property reductions bit for bit.
        """
        if policy == "pack-to-full":
            rows, takes, unused = self._pack(demand_ops, power_off_unused)
        elif policy == "ep-aware":
            rows, takes, unused = self._ep(demand_ops, power_off_unused)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        placed = sum(takes)
        powers: List[float] = []
        if rows:
            _, powers = self._assignment_columns(rows, takes)
        return placed, sum(powers) + unused

    def max_throughput_under_cap(
        self,
        power_cap_w: float,
        policy: str = "ep-aware",
        power_off_unused: bool = False,
    ) -> PlacementOutcome:
        """Columnar ``max_throughput_under_cap``; identical outcome."""
        low = cap_search(
            self, sum(self._full_cap), power_cap_w, policy, power_off_unused
        )
        return self.place(policy, low, power_off_unused)

    # -- job scheduling (jobs.py twin) -------------------------------------------

    def first_fit_decreasing(self, jobs: Sequence) -> "Schedule":
        """Columnar ``FirstFitDecreasing.schedule``; identical schedule.

        The FFD rank key ``throughput_at(s, 1.0) / power_at(s, 1.0)``
        is the same IEEE division as the pack order's full-load
        efficiency, so the precomputed pack ranking is reused.
        """
        caps = [self._full_cap[row] + 1e-9 for row in self._pack_rows]
        return self._fit_jobs(
            "first-fit-decreasing", jobs, [(self._pack_rows, caps)]
        )

    def peak_spot_aware(self, jobs: Sequence) -> "Schedule":
        """Columnar ``PeakSpotAware.schedule``; identical schedule."""
        spot_caps = [self._spot_cap[row] + 1e-9 for row in self._ep_rows]
        full_caps = [self._full_cap[row] + 1e-9 for row in self._ep_rows]
        return self._fit_jobs(
            "peak-spot-aware",
            jobs,
            [(self._ep_rows, spot_caps), (self._ep_rows, full_caps)],
        )

    def schedule(self, policy: str, jobs: Sequence) -> "Schedule":
        """Dispatch on the scheduler name."""
        if policy == "first-fit-decreasing":
            return self.first_fit_decreasing(jobs)
        if policy == "peak-spot-aware":
            return self.peak_spot_aware(jobs)
        raise ValueError(f"unknown scheduler {policy!r}")

    def _fit_jobs(self, policy: str, jobs: Sequence, passes) -> "Schedule":
        from repro.cluster.jobs import Schedule

        schedule = Schedule(policy=policy, fleet=list(self.arrays.records))
        ids = self.arrays.ids
        pending = sorted(jobs, key=lambda job: -job.demand_ops)
        for rows, caps in passes:
            spill = []
            for job in pending:
                placed = False
                for slot, row in enumerate(rows):
                    result_id = ids[row]
                    used = schedule.loads_ops.get(result_id, 0.0)
                    if used + job.demand_ops <= caps[slot]:
                        schedule.loads_ops[result_id] = used + job.demand_ops
                        schedule.assignments[job.job_id] = result_id
                        placed = True
                        break
                if not placed:
                    spill.append(job)
            pending = spill
        schedule.unplaced.extend(job.job_id for job in pending)
        return schedule
