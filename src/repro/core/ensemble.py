"""Multi-seed ensemble: how far do the paper's claims move with the seed?

The paper measured one 477-server corpus; the reproduction synthesizes
its corpus from a seed. :func:`run_ensemble` generates N seeded
corpora, measures every row of the claims table
:data:`repro.core.pipeline.CLAIMS` per seed (:func:`claim_values`),
and summarizes each row across seeds as mean / sample std /
normal-approximation 95% confidence interval. A process pool fans the
per-seed work out across cores; each seed's computation is
self-contained and pure, so serial and parallel runs return exactly
equal results (the per-seed floating-point work is identical, only the
scheduling differs).

The pool is hardened: a crashed worker (``BrokenProcessPool``) loses
only its in-flight seeds, which are re-run on a fresh pool a bounded
number of times before the engine degrades to serial execution with a
warning; a seed whose worker *raises* (rather than dies) is retried up
to ``seed_retries`` times.  The ``ensemble.worker`` fault-injection
site (:mod:`repro.core.faults`) drives both paths deterministically:
the parent claims trigger budget at dispatch time, in seed order, so
serial and parallel runs inject the same failures.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.faults import FaultPlan, active_plan
from repro.core.resilience import TransientError
from repro.dataset.synthesis import generate_corpus

#: Number of seeds when the caller only says "run an ensemble".
DEFAULT_ENSEMBLE_SIZE = 5

#: Bounded-wait tick for the worker pool (keeps every wait timed).
_WAIT_TICK_S = 0.25


@dataclass(frozen=True)
class MetricSummary:
    """Across-seed distribution of one claims row."""

    name: str
    mean: float
    std: float
    ci_low: float
    ci_high: float
    values: Tuple[float, ...]

    @property
    def ci_half_width(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)


@dataclass(frozen=True)
class EnsembleResult:
    """Per-seed claims values plus their across-seed summaries.

    ``per_seed[i]`` holds seed ``seeds[i]``'s value of every
    :data:`~repro.core.pipeline.CLAIMS` row, in table order;
    ``summaries`` maps each row's name to its spread, in the same order.
    """

    seeds: Tuple[int, ...]
    per_seed: Tuple[Tuple[float, ...], ...]
    summaries: Dict[str, MetricSummary]

    def summary(self, name: str) -> MetricSummary:
        """The across-seed summary of one claims row, by its name."""
        if name not in self.summaries:
            raise KeyError(f"unknown ensemble metric {name!r}")
        return self.summaries[name]

    def render(self) -> str:
        """A terminal table of the across-seed summaries."""
        from repro.viz.tables import format_table

        rows = [
            [
                summary.name,
                summary.mean,
                summary.std,
                f"[{summary.ci_low:.4f}, {summary.ci_high:.4f}]",
            ]
            for summary in self.summaries.values()
        ]
        return format_table(
            ["claim", "mean", "std", "95% CI"],
            rows,
            title=f"ensemble over {len(self.seeds)} seeds "
            f"({self.seeds[0]}..{self.seeds[-1]})",
            float_format="{:.4f}",
        )


def claim_values(seed: int, structural_effects: bool = True) -> Tuple[float, ...]:
    """Generate the corpus for one seed and measure every claims row."""
    from repro.core.pipeline import measure
    from repro.core.study import Study

    corpus = generate_corpus(seed, structural_effects=structural_effects)
    return measure(Study(corpus, seed=seed))


def _seed_worker(
    seed: int, structural_effects: bool, inject: bool
) -> Tuple[float, ...]:
    """Pool-side wrapper: one seed's claims values, or an injected fault."""
    if inject:
        raise TransientError(
            f"injected ensemble.worker fault for seed {seed}"
        )
    return claim_values(seed, structural_effects=structural_effects)


def _summarize(name: str, values: Sequence[float]) -> MetricSummary:
    data = np.asarray(values, dtype=float)
    mean = float(data.mean())
    std = float(data.std(ddof=1)) if data.size > 1 else 0.0
    half = 1.96 * std / math.sqrt(data.size) if data.size > 1 else 0.0
    return MetricSummary(
        name=name,
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        values=tuple(float(v) for v in data),
    )


def resolve_seeds(
    seeds: Union[int, Sequence[int]], base_seed: int = 2016
) -> Tuple[int, ...]:
    """Normalize an ensemble-size-or-seed-list argument.

    An integer asks for that many consecutive seeds starting at
    ``base_seed``; a sequence is used as given (order preserved).
    """
    if isinstance(seeds, int):
        if seeds <= 0:
            raise ValueError("ensemble size must be positive")
        return tuple(range(base_seed, base_seed + seeds))
    resolved = tuple(int(seed) for seed in seeds)
    if not resolved:
        raise ValueError("an ensemble needs at least one seed")
    if len(set(resolved)) != len(resolved):
        raise ValueError("ensemble seeds must be distinct")
    return resolved


def _pool_round(
    jobs: int,
    pending: Sequence[int],
    structural_effects: bool,
    injections: Dict[int, bool],
) -> Tuple[Dict[int, Tuple[float, ...]], List[Tuple[int, BaseException]], bool]:
    """One process-pool pass over ``pending`` seeds.

    Returns (completed, worker-raised failures, pool-broke flag).
    Seeds lost to a broken pool appear in neither list — they carry no
    blame and are re-dispatched by the caller.
    """
    completed: Dict[int, Tuple[float, ...]] = {}
    failed: List[Tuple[int, BaseException]] = []
    broke = False
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures: Dict[Future, int] = {
                pool.submit(
                    _seed_worker, seed, structural_effects,
                    injections.get(seed, False),
                ): seed
                for seed in pending
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, timeout=_WAIT_TICK_S)
                for future in done:
                    seed = futures[future]
                    try:
                        completed[seed] = future.result(timeout=0)
                    except BrokenProcessPool:
                        broke = True
                    except Exception as exc:
                        failed.append((seed, exc))
    except BrokenProcessPool:  # pool died while submitting/joining
        broke = True
    return completed, failed, broke


def run_ensemble(
    seeds: Union[int, Sequence[int]] = DEFAULT_ENSEMBLE_SIZE,
    jobs: int = 1,
    base_seed: int = 2016,
    structural_effects: bool = True,
    faults: Optional[FaultPlan] = None,
    seed_retries: int = 1,
    pool_restarts: int = 1,
) -> EnsembleResult:
    """Measure the claims rows on every seed and summarize them across seeds.

    ``seeds`` is either an ensemble size (consecutive seeds from
    ``base_seed``) or an explicit seed sequence.  ``jobs`` > 1 fans the
    per-seed corpus generation and analysis out over a process pool;
    results are returned in seed order either way, and parallel output
    equals serial output exactly.

    Failure handling: a worker that *raises* is retried for that seed
    up to ``seed_retries`` more times (then the error propagates); a
    pool that *breaks* (crashed worker process) is restarted up to
    ``pool_restarts`` times for the lost seeds only, after which the
    remaining seeds run serially under a ``RuntimeWarning``.  With a
    ``faults`` plan (or an installed ambient plan), the
    ``ensemble.worker`` site claims trigger budget at dispatch time in
    seed order, keeping injection deterministic across scheduling
    modes.
    """
    if jobs < 1:
        raise ValueError(
            f"jobs must be >= 1, got {jobs} (1 = serial execution)"
        )
    if seed_retries < 0 or pool_restarts < 0:
        raise ValueError("seed_retries and pool_restarts must be >= 0")
    resolved = resolve_seeds(seeds, base_seed=base_seed)
    plan = faults if faults is not None else active_plan()
    per_seed_map: Dict[int, Tuple[float, ...]] = {}
    budget = {seed: 1 + seed_retries for seed in resolved}

    def dispatch_injection(seed: int) -> bool:
        return plan.take("ensemble.worker") if plan is not None else False

    def run_serially(pending: Sequence[int]) -> None:
        for seed in pending:
            while True:
                budget[seed] -= 1
                try:
                    per_seed_map[seed] = _seed_worker(
                        seed, structural_effects, dispatch_injection(seed)
                    )
                    break
                except Exception:
                    if budget[seed] <= 0:
                        raise

    use_pool = jobs > 1 and len(resolved) > 1
    pending = list(resolved)
    restarts = 0
    while pending:
        if not use_pool:
            run_serially(pending)
            pending = []
            break
        injections = {seed: dispatch_injection(seed) for seed in pending}
        completed, failed, broke = _pool_round(
            jobs, pending, structural_effects, injections
        )
        per_seed_map.update(completed)
        for seed, error in failed:
            budget[seed] -= 1
            if budget[seed] <= 0:
                raise error
        if broke:
            restarts += 1
            if restarts > pool_restarts:
                warnings.warn(
                    "ensemble process pool broke "
                    f"{restarts} time(s); degrading the remaining seeds "
                    "to serial execution",
                    RuntimeWarning,
                    stacklevel=2,
                )
                use_pool = False
        pending = [seed for seed in resolved if seed not in per_seed_map]

    from repro.core.pipeline import CLAIMS

    per_seed = tuple(per_seed_map[seed] for seed in resolved)
    summaries = {
        claim.name: _summarize(claim.name, column)
        for claim, column in zip(CLAIMS, zip(*per_seed))
    }
    return EnsembleResult(seeds=resolved, per_seed=per_seed, summaries=summaries)
