"""Synthesis of the 477-server corpus from the calibration targets.

The generator expands the target tables of
:mod:`repro.dataset.calibration_targets` into full FDR-shaped records
in nine deterministic passes:

1. expand the (year, codename) allocation into server stubs;
2. attach the paper's pinned exemplars to matching stubs;
3. place the 74 multi-node systems per the node/year plan;
4. distribute single-node chip counts (77/284/36/6 at 1/2/4/8 chips);
5. assign memory-per-core ratios (Table I buckets plus the long tail);
6. draw each stub's EP target (codename mean + structural adjustments
   + noise), then give the highest-EP servers of each year the
   earliest peak-efficiency spots per the Section IV.A allocation;
7. derive idle fractions by inverting Eq. 2 with noise and solve each
   power curve in the three-parameter family;
8. scale efficiencies (year base x codename/chips/memory factors) and
   materialize noisy per-level measurements;
9. pick publication years so exactly 74 results have a published year
   different from hardware availability (every pre-2007 system must --
   the benchmark did not exist yet).

Everything is driven by one ``numpy.random.Generator``; the same seed
always yields the identical corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset import calibration_targets as targets
from repro.dataset.corpus import Corpus
from repro.dataset.curve_family import solve_curve_rows, solve_curve_with_fallback
from repro.dataset.schema import LoadLevel, SpecPowerResult, overall_scores
from repro.metrics.ep import TARGET_LOADS_DESCENDING, UTILIZATION_LEVELS
from repro.power.microarch import CATALOG, Codename

_LEVEL_GRID = np.array(UTILIZATION_LEVELS)

#: The ten non-idle measurement loads, pre-rounded to their dictionary
#: keys (the generator keys measurements by ``round(load, 1)``).
_ROUNDED_LOADS = tuple(float(round(load, 1)) for load in _LEVEL_GRID[1:])
_ROUNDED_LOADS_ARR = np.array(_ROUNDED_LOADS)

#: Noise scales of one measurement attempt, in draw order: the
#: generator alternates a power draw (sigma 0.0015) and a throughput
#: draw (sigma 0.002) per load level, so a single array-scale
#: ``rng.normal`` call consumes the stream exactly like the former
#: per-level scalar draws.
_ATTEMPT_SIGMAS = np.empty(2 * len(_ROUNDED_LOADS))
_ATTEMPT_SIGMAS[0::2] = 0.0015
_ATTEMPT_SIGMAS[1::2] = 0.002

#: (reported target load, measurement-array index) per output level.
_TARGET_INDICES = tuple(
    (float(load), _ROUNDED_LOADS.index(float(round(load, 1))))
    for load in TARGET_LOADS_DESCENDING
)
_IDX_08 = _ROUNDED_LOADS.index(0.8)
_IDX_09 = _ROUNDED_LOADS.index(0.9)


@dataclass
class _Stub:
    """A server under construction."""

    index: int
    hw_year: int
    codename: Codename
    nodes: int = 1
    chips_per_node: int = 2
    cores_per_chip: int = 4
    mpc: float = 1.0
    ep_target: float = 0.6
    peak_spot: float = 1.0
    idle_fraction: float = 0.4
    pinned: Optional[targets.PinnedServer] = None
    power_points: Optional[np.ndarray] = None
    score_target: float = 1000.0
    published_year: int = 0

    @property
    def total_cores(self) -> int:
        return self.nodes * self.chips_per_node * self.cores_per_chip


def generate_corpus(seed: int = 2016, structural_effects: bool = True) -> Corpus:
    """Generate the full 477-result corpus; deterministic per seed.

    ``structural_effects=False`` is the ablation switch: it zeroes the
    configuration-level EP/EE adjustments (node count, chip count,
    memory per core) while keeping the year/codename calibration, so
    the Figs. 13-15/17 shapes disappear while Figs. 2-8 persist --
    separating what the corpus encodes as *configuration physics* from
    what is *cohort composition*.
    """
    targets.validate_targets()
    rng = np.random.default_rng(seed)

    stubs = _expand_stubs()
    _attach_pinned(stubs)
    _assign_multi_node(stubs, rng)
    _assign_chips(stubs, rng)
    _assign_cores(stubs)
    _assign_memory(stubs, rng)
    _assign_ep_targets(stubs, rng, structural_effects)
    _assign_peak_spots(stubs, rng)
    _assign_idle_fractions(stubs, rng)
    _solve_curves(stubs)
    _assign_scores(stubs, rng, structural_effects)
    _assign_publication_years(stubs, rng)

    results = [_materialize(stub, rng) for stub in stubs]
    _enforce_ee_monotonicity(results)
    return Corpus(results)


# -- pass 1: stubs ---------------------------------------------------------------


def _expand_stubs() -> List[_Stub]:
    stubs: List[_Stub] = []
    index = 0
    for year in sorted(targets.YEAR_CODENAME_COUNTS):
        allocation = targets.YEAR_CODENAME_COUNTS[year]
        for codename in sorted(allocation, key=lambda c: c.value):
            for _ in range(allocation[codename]):
                stubs.append(_Stub(index=index, hw_year=year, codename=codename))
                index += 1
    return stubs


# -- pass 2: pinned exemplars ------------------------------------------------------


def _attach_pinned(stubs: List[_Stub]) -> None:
    for pin in targets.PINNED_SERVERS:
        for stub in stubs:
            if stub.pinned is not None:
                continue
            if stub.hw_year == pin.hw_year and stub.codename is pin.codename:
                stub.pinned = pin
                stub.nodes = pin.nodes
                stub.chips_per_node = pin.chips_per_node
                stub.ep_target = pin.ep
                stub.peak_spot = pin.peak_spot
                if pin.cores_per_chip is not None:
                    stub.cores_per_chip = pin.cores_per_chip
                if pin.power_curve is not None:
                    stub.power_points = np.array(pin.power_curve)
                break
        else:
            raise RuntimeError(
                f"no ({pin.hw_year}, {pin.codename.value}) slot for pinned "
                f"server {pin.key}"
            )


# -- pass 3: multi-node systems -----------------------------------------------------


#: 8-node systems are built from the EX (large-SMP) parts in the years
#: those shipped, Haswell-era blades later; the other sizes use the
#: year's volume codename.
_MULTI_NODE_CODENAME = {8: (Codename.NEHALEM_EX, Codename.HASWELL)}


# parity: scalar kernel with no vectorized twin; corpus identity is pinned by tests/test_dataset_reference.py::test_default_seed_bit_identical
def _assign_multi_node(stubs: List[_Stub], rng: np.random.Generator) -> None:
    by_year: Dict[int, List[_Stub]] = {}
    for stub in stubs:
        by_year.setdefault(stub.hw_year, []).append(stub)
    for nodes in sorted(targets.MULTI_NODE_YEAR_PLAN):
        for year in targets.MULTI_NODE_YEAR_PLAN[nodes]:
            candidates = [
                stub
                for stub in by_year.get(year, ())
                if stub.nodes == 1 and stub.pinned is None
            ]
            if not candidates:
                raise RuntimeError(f"no slot for a {nodes}-node system in {year}")
            pool = []
            for preferred in _MULTI_NODE_CODENAME.get(nodes, ()):
                pool = [stub for stub in candidates if stub.codename is preferred]
                if pool:
                    break
            if not pool:
                # Fall back to the year's most common codename:
                # multi-node submissions are mainstream volume parts.
                counts: Dict[Codename, int] = {}
                for stub in candidates:
                    counts[stub.codename] = counts.get(stub.codename, 0) + 1
                best = max(counts.values())
                pool = [stub for stub in candidates if counts[stub.codename] == best]
            chosen = pool[int(rng.integers(len(pool)))]
            chosen.nodes = nodes
            chosen.chips_per_node = 2


# -- pass 4: chip counts --------------------------------------------------------------


#: Codename preference for the outlying chip counts: 8-chip boxes are
#: the EX/HPC parts; 4-chip boxes skew to the same families plus AMD;
#: 1-chip boxes are the entry parts.
_EIGHT_CHIP_PREFERENCE = (Codename.NEHALEM_EX, Codename.WESTMERE_EP, Codename.SANDY_BRIDGE_EP)
_FOUR_CHIP_PREFERENCE = (
    Codename.NEHALEM_EX,
    Codename.MAGNY_COURS,
    Codename.INTERLAGOS,
    Codename.ABU_DHABI,
    Codename.ISTANBUL,
    Codename.BARCELONA,
    Codename.WESTMERE_EP,
    Codename.SANDY_BRIDGE_EP,
    Codename.IVY_BRIDGE_EP,
)
#: The 1-chip class is bimodal on purpose: entry parts of recent years
#: (Lynnfield, Sandy/Ivy Bridge, Seoul) lift its *median* EP above the
#: 2-chip class, while legacy desktop-derived parts (Yorkfield, Penryn)
#: drag its *average* below -- exactly the Fig. 14 asymmetry (the paper
#: reports median EP 0.67 for 1 chip vs 0.66 for 2 chips, yet 2-chip
#: servers lead every other statistic).  Quotas are explicit because
#: the asymmetry depends on the exact mix.
_ONE_CHIP_QUOTAS = (
    (Codename.LYNNFIELD, 12),
    (Codename.SANDY_BRIDGE, 13),
    (Codename.IVY_BRIDGE, 14),
    (Codename.UNKNOWN, 13),
    (Codename.SEOUL, 5),
    (Codename.YORKFIELD, 10),
    (Codename.PENRYN, 10),
)
_ONE_CHIP_PREFERENCE = tuple(codename for codename, _quota in _ONE_CHIP_QUOTAS)


# parity: scalar kernel with no vectorized twin; corpus identity is pinned by tests/test_dataset_reference.py
def _assign_chips(stubs: List[_Stub], rng: np.random.Generator) -> None:
    single = [stub for stub in stubs if stub.nodes == 1]
    remaining = dict(targets.SINGLE_NODE_CHIP_COUNTS)
    for stub in single:
        if stub.pinned is not None:
            remaining[stub.chips_per_node] -= 1

    unassigned = [stub for stub in single if stub.pinned is None]

    def take(
        count: int, preference: Sequence[Codename], chips: int, jitter: float
    ) -> None:
        ranking = {codename: rank for rank, codename in enumerate(preference)}
        pool = sorted(
            (stub for stub in unassigned if stub.chips_per_node == 0),
            # Rank jitter mixes adjacent preference tiers so no single
            # codename monopolizes a chip class.
            key=lambda stub: ranking.get(stub.codename, len(ranking))
            + float(rng.uniform(0.0, jitter)),
        )
        for stub in pool[:count]:
            stub.chips_per_node = chips

    for stub in unassigned:
        stub.chips_per_node = 0  # sentinel: not yet allocated
    take(remaining[8], _EIGHT_CHIP_PREFERENCE, 8, jitter=0.5)
    take(remaining[4], _FOUR_CHIP_PREFERENCE, 4, jitter=2.0)
    taken_one = 0
    for codename, quota in _ONE_CHIP_QUOTAS:
        pool = sorted(
            (
                stub
                for stub in unassigned
                if stub.chips_per_node == 0 and stub.codename is codename
            ),
            key=lambda stub: -stub.hw_year,  # entry parts skew recent
        )
        picks = min(quota, len(pool), remaining[1] - taken_one)
        for stub in pool[:picks]:
            stub.chips_per_node = 1
        taken_one += picks
    if taken_one < remaining[1]:
        take(remaining[1] - taken_one, _ONE_CHIP_PREFERENCE, 1, jitter=1.0)
    for stub in unassigned:
        if stub.chips_per_node == 0:
            stub.chips_per_node = 2

    observed: Dict[int, int] = {}
    for stub in single:
        observed[stub.chips_per_node] = observed.get(stub.chips_per_node, 0) + 1
    if observed != targets.SINGLE_NODE_CHIP_COUNTS:
        raise RuntimeError(f"chip allocation drifted: {observed}")


def _assign_cores(stubs: List[_Stub]) -> None:
    for stub in stubs:
        if stub.pinned is not None and stub.pinned.cores_per_chip is not None:
            continue
        stub.cores_per_chip = targets.CORES_PER_CHIP[stub.codename]


# -- pass 5: memory per core ------------------------------------------------------------


# parity: scalar kernel with no vectorized twin; corpus identity is pinned by tests/test_dataset_reference.py
def _assign_memory(stubs: List[_Stub], rng: np.random.Generator) -> None:
    values: List[float] = []
    for ratio in sorted(targets.MEMORY_PER_CORE_COUNTS):
        values.extend([ratio] * targets.MEMORY_PER_CORE_COUNTS[ratio])
    tail = list(targets.OTHER_MEMORY_PER_CORE)
    index = 0
    while len(values) < len(stubs):
        values.append(tail[index % len(tail)])
        index += 1
    values.sort()
    # Stratified dealing: each bucket receives an even spread of the
    # EP-rank distribution, so Fig. 17's per-bucket averages reflect the
    # structural adjustments rather than composition luck.  (Table I's
    # ratios are therefore deliberately decorrelated from year; the
    # paper's Fig. 17 likewise averages across all eras per bucket.)
    from collections import Counter

    bucket_counts = Counter(values)
    placements = []
    for ratio, count in sorted(bucket_counts.items()):
        offsets = (np.arange(count) + float(rng.uniform(0.0, 1.0))) * (
            len(stubs) / count
        )
        placements.extend((float(pos), ratio) for pos in offsets)
    placements.sort()
    ranked = sorted(
        stubs,
        key=lambda stub: _codename_ep_mean(stub)
        + targets.YEAR_EP_TWEAK.get(stub.hw_year, 0.0)
        + float(rng.normal(0.0, 0.02)),
    )
    for stub, (_pos, ratio) in zip(ranked, placements):
        stub.mpc = ratio


# -- pass 6: EP targets and peak spots -------------------------------------------------


def _codename_ep_mean(stub: _Stub) -> float:
    if stub.codename is Codename.UNKNOWN:
        return targets.YEAR_EP_ESTIMATE[stub.hw_year]
    return CATALOG[stub.codename].ep_mean


def _assign_ep_targets(
    stubs: List[_Stub],
    rng: np.random.Generator,
    structural_effects: bool = True,
) -> None:
    unpinned = [stub for stub in stubs if stub.pinned is None]
    # One array-scale draw over the per-codename spreads consumes the
    # stream exactly like the former per-stub scalar draws.
    spreads = np.array([CATALOG[stub.codename].ep_spread for stub in unpinned])
    draws = rng.normal(0.0, spreads)
    for stub, draw in zip(unpinned, draws):
        base = _codename_ep_mean(stub)
        base += targets.YEAR_EP_TWEAK.get(stub.hw_year, 0.0)
        if structural_effects:
            base += targets.NODE_EP_BONUS.get(stub.nodes, 0.0)
            if stub.nodes == 1:
                base += targets.CHIP_EP_ADJUST[stub.chips_per_node]
            base += targets.MPC_EP_ADJUST[stub.mpc]
        ep = base + float(draw)
        low = 0.73 if stub.hw_year == 2016 else 0.19
        stub.ep_target = float(min(0.99, max(low, ep)))


# parity: scalar kernel with no vectorized twin; corpus identity is pinned by tests/test_dataset_reference.py
def _assign_peak_spots(stubs: List[_Stub], rng: np.random.Generator) -> None:
    for year, allocation in targets.PEAK_SPOT_YEAR_COUNTS.items():
        pool: Dict[float, int] = dict(allocation)
        year_stubs = [stub for stub in stubs if stub.hw_year == year]
        for stub in year_stubs:
            if stub.pinned is not None:
                spot = stub.pinned.peak_spot
                if pool.get(spot, 0) <= 0:
                    raise RuntimeError(
                        f"peak-spot pool exhausted for pinned {stub.pinned.key}"
                    )
                pool[spot] -= 1
        spots: List[float] = []
        for spot in sorted(pool):
            spots.extend([spot] * pool[spot])
        # Highest EP first -> earliest spot first: reproduces Section
        # III.C's rule that more proportional servers peak (and cross
        # the ideal curve) farther from 100% utilization.
        unpinned = sorted(
            (stub for stub in year_stubs if stub.pinned is None),
            key=lambda stub: -stub.ep_target,
        )
        if len(unpinned) != len(spots):
            raise RuntimeError(f"peak-spot allocation mismatch in {year}")
        for stub, spot in zip(unpinned, spots):
            stub.peak_spot = spot


# -- pass 7: idle fractions and curves ----------------------------------------------------


def _idle_from_ep(ep: float) -> float:
    """Invert Eq. 2: the deterministic idle fraction for an EP value."""
    return math.log(targets.EQ2_AMPLITUDE / ep) / (-targets.EQ2_RATE)


def _assign_idle_fractions(stubs: List[_Stub], rng: np.random.Generator) -> None:
    # Pinned stubs consume no draws, so one sized draw over the
    # unpinned stubs matches the former per-stub scalar stream.
    noises = iter(rng.normal(0.0, 0.13, size=sum(s.pinned is None for s in stubs)))
    for stub in stubs:
        if stub.pinned is not None and stub.pinned.idle_fraction is not None:
            stub.idle_fraction = stub.pinned.idle_fraction
            continue
        noise = 0.0 if stub.pinned is not None else float(next(noises))
        idle = _idle_from_ep(stub.ep_target) * math.exp(noise)
        # Hard bound: EP <= 2 * (1 - idle) for any monotone curve.
        idle = min(idle, 1.0 - stub.ep_target / 2.0 - 0.04)
        if stub.peak_spot >= 1.0 - 1e-9:
            # Peak at 100% additionally requires EP <= 1 - idle/2.
            idle = min(idle, 2.0 * (1.0 - stub.ep_target) - 0.02)
        stub.idle_fraction = float(min(0.93, max(0.03, idle)))


def _solve_curves(stubs: List[_Stub]) -> None:
    # Pinned curves stay explicit; every other stub is solved in one
    # batch, and only the rows it cannot serve relax their targets.
    open_stubs = [stub for stub in stubs if stub.power_points is None]
    rows = solve_curve_rows(
        [stub.ep_target for stub in open_stubs],
        [stub.idle_fraction for stub in open_stubs],
        [stub.peak_spot for stub in open_stubs],
    )
    points, idle = rows.points, rows.idle.copy()
    for r in np.flatnonzero(rows.failure):
        stub = open_stubs[r]
        curve = solve_curve_with_fallback(
            stub.ep_target, stub.idle_fraction, stub.peak_spot
        )
        points[r], idle[r] = curve.grid_power(), curve.idle
    # Earliest peak-efficiency measurement level per row, straight from
    # the grid powers (elementwise identical to ``grid_peak_spots()[0]``
    # for both curve classes, without re-evaluating any curve).
    levels = _LEVEL_GRID[1:]
    rel = levels / points[:, 1:]
    best = rel.max(axis=1)
    spots = levels[np.argmax(rel >= best[:, None] * (1.0 - 1e-9), axis=1)]
    for stub, row, row_idle, spot in zip(open_stubs, points, idle.tolist(), spots.tolist()):
        stub.idle_fraction = row_idle
        stub.power_points = row.copy()
        stub.peak_spot = spot


# -- pass 8: efficiency scale ---------------------------------------------------------------


def _catalog_ee_factor(stub: _Stub, year_typical: Dict[int, float]) -> float:
    """Codename efficiency factor; unknown codenames are year-typical."""
    if stub.codename is Codename.UNKNOWN:
        return year_typical[stub.hw_year]
    return CATALOG[stub.codename].ee_factor


def _config_ee_factor(stub: _Stub) -> float:
    if stub.nodes == 1:
        factor = targets.CHIP_EE_FACTOR[stub.chips_per_node]
    else:
        factor = targets.NODE_EE_FACTOR.get(stub.nodes, 1.0)
    return factor * targets.MPC_EE_FACTOR[stub.mpc]


def _year_typical_catalog_factor(stubs: List[_Stub]) -> Dict[int, float]:
    typical: Dict[int, float] = {}
    for year in targets.YEAR_COUNTS:
        known = [
            CATALOG[stub.codename].ee_factor
            for stub in stubs
            if stub.hw_year == year and stub.codename is not Codename.UNKNOWN
        ]
        typical[year] = float(np.mean(known)) if known else 1.0
    return typical


def _ee_structural_factor(
    stub: _Stub,
    year_typical: Dict[int, float],
    structural_effects: bool = True,
) -> float:
    factor = _catalog_ee_factor(stub, year_typical)
    if structural_effects:
        factor *= _config_ee_factor(stub)
    return factor


# parity: scalar kernel with no vectorized twin; corpus identity is pinned by tests/test_dataset_reference.py
def _assign_scores(
    stubs: List[_Stub],
    rng: np.random.Generator,
    structural_effects: bool = True,
) -> None:
    year_typical = _year_typical_catalog_factor(stubs)
    year_mean: Dict[int, float] = {}
    for year in targets.YEAR_COUNTS:
        members = [stub for stub in stubs if stub.hw_year == year]
        year_mean[year] = float(
            np.mean(
                [
                    _ee_structural_factor(stub, year_typical, structural_effects)
                    for stub in members
                ]
            )
        )
    # Pre-2013, the efficiency outliers were raw-throughput platform
    # designs rather than the proportionality leaders (Section IV.B's
    # second asynchrony fold: high-EP servers rarely sit in the top
    # efficiency decile).  The per-year noise draws for those years are
    # therefore dealt mostly anti-ranked against EP.
    noise_sigma = {
        year: (0.13 if year <= 2012 else 0.05) for year in targets.YEAR_COUNTS
    }
    noise_by_stub: Dict[int, float] = {}
    for year in targets.YEAR_COUNTS:
        members = [
            stub
            for stub in stubs
            if stub.hw_year == year
            and not (stub.pinned is not None and stub.pinned.score is not None)
        ]
        draws = sorted(
            float(rng.normal(0.0, noise_sigma[year])) for _ in members
        )
        if year <= 2012:
            # Rank by the *platform's* proportionality (codename mean),
            # so configuration-level adjustments (chips, memory) keep
            # their own EE factors undisturbed.
            ordered = sorted(
                members, key=lambda stub: -_codename_ep_mean(stub)
            )
            # The proportionality leaders (top fifth by EP) strictly
            # receive the smallest efficiency draws; the rest of the
            # year is only loosely anti-ranked.
            strict = max(1, len(draws) // 8)
            for i in range(strict, len(draws)):
                j = int(rng.integers(max(strict, i - 8), min(len(draws), i + 9)))
                draws[i], draws[j] = draws[j], draws[i]
        else:
            ordered = list(members)
            rng.shuffle(draws)
        for stub, draw in zip(ordered, draws):
            noise_by_stub[stub.index] = draw

    for stub in stubs:
        if stub.pinned is not None and stub.pinned.score is not None:
            stub.score_target = stub.pinned.score
            continue
        base = targets.YEAR_SCORE_BASE[stub.hw_year]
        relative = (
            _ee_structural_factor(stub, year_typical, structural_effects)
            / year_mean[stub.hw_year]
        )
        noise = math.exp(noise_by_stub[stub.index])
        stub.score_target = base * relative * noise


# -- pass 9: publication years ----------------------------------------------------------------


# parity: scalar kernel with no vectorized twin; corpus identity is pinned by tests/test_dataset_reference.py
def _assign_publication_years(stubs: List[_Stub], rng: np.random.Generator) -> None:
    for stub in stubs:
        stub.published_year = stub.hw_year

    lags: List[int] = []
    for lag in sorted(targets.PUBLICATION_LAG_COUNTS, reverse=True):
        lags.extend([lag] * targets.PUBLICATION_LAG_COUNTS[lag])

    # Every pre-2007 system must be reorganized (the benchmark launched
    # in late 2007); they take the largest lags.
    mandatory = [stub for stub in stubs if stub.hw_year < 2007]
    chosen: List[_Stub] = list(mandatory)
    # Positive lags need room before the 2016 submission cutoff, so
    # 2016 hardware is excluded (its only mismatch mode is the single
    # published-before-availability case below).
    eligible = [
        stub
        for stub in stubs
        if 2007 <= stub.hw_year <= 2015 and stub.pinned is None
    ]
    # Older hardware is likelier to have a late submission.
    weights = np.array([2.0 if stub.hw_year <= 2012 else 1.0 for stub in eligible])
    weights /= weights.sum()
    picks = rng.choice(
        len(eligible),
        size=targets.REORGANIZED_SERVERS - len(mandatory),
        replace=False,
        p=weights,
    )
    chosen.extend(eligible[int(i)] for i in picks)

    # The single negative lag (published the year before availability)
    # needs late hardware so the published year stays in range; the
    # paper's own example is 2016 hardware published in 2015.
    chosen.sort(key=lambda stub: stub.hw_year)
    late = [stub for stub in stubs if stub.hw_year == 2016 and stub.pinned is None]
    if late:
        negative_stub = late[0]
        chosen.append(negative_stub)
        chosen = chosen[: targets.REORGANIZED_SERVERS]
        if negative_stub not in chosen:
            chosen[-1] = negative_stub
    else:
        negatives = [stub for stub in chosen if stub.hw_year >= 2015]
        negative_stub = negatives[-1] if negatives else chosen[-1]

    positive_lags = [lag for lag in lags if lag > 0]
    positive_lags.sort(reverse=True)
    others = [stub for stub in chosen if stub is not negative_stub]
    others.sort(key=lambda stub: stub.hw_year)
    for stub, lag in zip(others, positive_lags):
        published = stub.hw_year + lag
        published = max(2007, min(2016, published))
        if published == stub.hw_year:
            published = min(2016, stub.hw_year + 1)
        stub.published_year = published
    negative_stub.published_year = negative_stub.hw_year - 1


# -- materialization -----------------------------------------------------------------------------


# parity: scalar kernel with no vectorized twin; corpus identity is pinned by tests/test_dataset_reference.py
def _materialize(stub: _Stub, rng: np.random.Generator) -> SpecPowerResult:
    power_points = np.asarray(stub.power_points, dtype=float)
    if power_points.shape != _LEVEL_GRID.shape:
        raise RuntimeError("power curve must have eleven points")

    peak_power = _watts_at_full_load(stub, rng)
    denominator = float(power_points[1:].sum() + power_points[0])
    ee_at_full = stub.score_target * denominator / float(_LEVEL_GRID[1:].sum())
    max_ops = ee_at_full * peak_power

    levels, idle_w = _noisy_levels(stub, power_points, peak_power, max_ops, rng)

    brand, prefix = targets.VENDOR_POOL[int(rng.integers(len(targets.VENDOR_POOL)))]
    form = (
        stub.pinned.form_factor
        if stub.pinned is not None
        else targets.FORM_FACTORS[int(rng.integers(len(targets.FORM_FACTORS)))]
    )
    model = f"{prefix}-{stub.hw_year % 100:02d}{stub.index % 1000:03d}"
    tie = stub.pinned.tie_peak_spots if stub.pinned is not None else False

    return SpecPowerResult(
        result_id=f"res-{stub.index:04d}",
        vendor=brand,
        model=model,
        form_factor=form,
        hw_year=stub.hw_year,
        published_year=stub.published_year,
        codename=stub.codename,
        nodes=stub.nodes,
        chips_per_node=stub.chips_per_node,
        cores_per_chip=stub.cores_per_chip,
        memory_gb=stub.mpc * stub.total_cores,
        levels=levels,
        active_idle_power_w=idle_w,
        tie_peak_spots=tie,
    )


# parity: scalar kernel with no vectorized twin; corpus identity is pinned by tests/test_dataset_reference.py
def _watts_at_full_load(stub: _Stub, rng: np.random.Generator) -> float:
    per_core = targets.WATTS_PER_CORE[stub.hw_year]
    chassis = 55.0 if stub.nodes == 1 else 40.0  # shared PSUs amortize
    watts = stub.nodes * (chassis + stub.chips_per_node * stub.cores_per_chip * per_core)
    return watts * math.exp(float(rng.normal(0.0, 0.10)))


def _noisy_levels(
    stub: _Stub,
    power_points: np.ndarray,
    peak_power: float,
    max_ops: float,
    rng: np.random.Generator,
) -> Tuple[List[LoadLevel], float]:
    """Materialize measured levels, preserving the peak-efficiency spot.

    One array-scale draw per attempt replaces the former per-level
    scalar draws (the alternating sigma vector keeps the stream, and so
    the corpus, bit-identical), and the spot check runs on the raw
    arrays: the former ranked list's head/runner-up are the max and the
    second-largest value, and the winning spot is the lowest load
    within the tie tolerance of the head.
    """
    tie = stub.pinned.tie_peak_spots if stub.pinned is not None else False
    base_powers = peak_power * power_points[1:]
    base_opses = max_ops * _ROUNDED_LOADS_ARR
    for attempt in range(12):
        # Later retries shrink the noise so curves whose peak level wins
        # by a slim natural margin still land on their planned spot.
        damping = 1.0 if attempt < 6 else 0.5 ** (attempt - 5)
        draws = rng.normal(0.0, _ATTEMPT_SIGMAS * damping)
        powers_arr = base_powers * (1.0 + draws[0::2])
        opses_arr = base_opses * (1.0 + draws[1::2])
        if tie:
            # Exact efficiency tie between 80% and 90% (Section IV.A's
            # 478th spot): power at 90% set so ops/power matches 80%.
            opses_arr[_IDX_09] = max_ops * 0.9
            opses_arr[_IDX_08] = max_ops * 0.8
            powers_arr[_IDX_09] = powers_arr[_IDX_08] * (0.9 / 0.8)
        idle_noise = 1.0 + float(rng.normal(0.0, 0.0015))
        idle_w = peak_power * float(power_points[0]) * idle_noise

        efficiencies = opses_arr / powers_arr
        best = efficiencies.max()
        first_spot = _ROUNDED_LOADS_ARR[
            efficiencies >= best * (1.0 - 1e-9)
        ][0]
        if tie:
            if abs(first_spot - 0.8) < 1e-9:
                break
        elif (
            abs(first_spot - stub.peak_spot) < 1e-9
            # Strict winner: the runner-up stays clearly below so the
            # analysis-side tie detector never miscounts a spot.
            and np.partition(efficiencies, -2)[-2] <= best * (1.0 - 2e-3)
        ):
            break
    levels = [
        LoadLevel(
            target_load=load,
            ssj_ops=float(opses_arr[index]),
            average_power_w=float(powers_arr[index]),
        )
        for load, index in _TARGET_INDICES
    ]
    return levels, float(idle_w)


def _enforce_ee_monotonicity(results: List[SpecPowerResult]) -> None:
    """Keep per-year maximum overall score non-decreasing (Fig. 4).

    A final calibration pass: when sampling noise leaves one year's best
    score below the previous year's, the year's best server is scaled up
    to restore the published monotone envelope (every other statistic
    is untouched).  Every score comes from one :func:`overall_scores`
    pass, which also primes each record's metric memos; a rescaled
    record is primed again after its rescale.
    """
    scores = overall_scores(results)
    years = np.array([result.hw_year for result in results])
    previous_max = 0.0
    for year in np.unique(years):
        members = np.flatnonzero(years == year)
        best = members[np.argmax(scores[members])]  # first best, as max() picks
        score = float(scores[best])
        if score <= previous_max:
            result = results[best]
            scale = previous_max * 1.03 / score
            result.levels = [
                LoadLevel(
                    target_load=level.target_load,
                    ssj_ops=level.ssj_ops * scale,
                    average_power_w=level.average_power_w,
                )
                for level in result.levels
            ]
            result.invalidate_cache()
            overall_scores([result])
            score = scores[best] = result.overall_score
        previous_max = score
