"""Seeded request streams for the benchmark's workloads.

Every stream is a pure function of the benchmark seed: the same seed
yields the same payload sequence, a different seed a different one.
The daemon only ever sees these generated payloads; the corpus seed
inside every payload stays at the daemon's default (2016).

The serve stream is consumed in order across a run's rounds (closed
loop, then open loop), so a faster commit that gets further down the
stream in the closed loop still sees the same sequence.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

Payload = Dict[str, Any]

METRICS = ("ep", "score", "peak_ee", "idle_fraction", "memory_per_core_gb")
POLICIES = ("ep-aware", "pack-to-full")
#: serve_compute: requests per block of 20, by family.  Every block
#: carries the same mix, so every stretch of the stream costs alike.
#: Warm-engine cost on the reference box: placement ~2 ms, cdf ~0.5 ms,
#: replay (4-7 steps) ~4-15 ms, cap ~15-25 ms; a request averages
#: ~4 ms, light enough that a 20 s run holds 1000+ open-loop samples
#: at half the daemon's capacity.
COMPUTE_BLOCK = (("placement", 10), ("cdf", 7), ("replay", 2), ("cap", 1))
#: serve_compute fleet cohorts: two under the 24-server scalar cutoff,
#: three on the columnar engine.  Fixed, so the seed moves only the
#: per-request parameters.  Caps stay at 60-130 W per server: above
#: that the scalar ep-aware bisection slows up to tenfold.
COMPUTE_COHORTS = (14, 20, 48, 96, 192)
SCALAR_COHORTS = (14, 20)


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench/{workload}/{stream}/{seed}")


def _fresh_cdf(rng: random.Random, used: Set[Tuple]) -> Payload:
    """A cdf request whose (metric, lo, hi) band has not been used."""
    while True:
        metric = rng.choice(METRICS)
        lo = round(rng.uniform(0.0, 0.6), 9)
        hi = round(lo + rng.uniform(0.05, 0.4), 9)
        key = (metric, lo, hi)
        if key not in used:
            used.add(key)
            return {"family": "cdf", "metric": metric, "lo": lo, "hi": hi}


def compute_stream(seed: int, stream: str = "stream") -> Iterator[Payload]:
    """serve_compute traffic: every spec key distinct, engine-bound mix."""
    rng = _rng("serve_compute", seed, stream)
    block = [family for family, count in COMPUTE_BLOCK for _ in range(count)]
    used: Set[Tuple] = set()
    while True:
        rng.shuffle(block)
        for family in block:
            if family == "cdf":
                yield _fresh_cdf(rng, used)
                continue
            policy = rng.choice(POLICIES)
            if family == "cap":
                payload = {"family": "cap", "policy": policy,
                           "servers": rng.choice(SCALAR_COHORTS)}
                payload["power_cap_w"] = round(
                    payload["servers"] * rng.uniform(60.0, 130.0), 6)
            elif family == "replay":
                payload = _fresh_replay(rng, used, policy)
            if family == "placement" or payload is None:
                payload = {"family": "placement", "policy": policy,
                           "servers": rng.choice(COMPUTE_COHORTS),
                           "demand_fraction": round(rng.uniform(0.05, 0.95), 9)}
            used.add(tuple(sorted(payload.items())))
            yield payload


def _replay_cohorts() -> List[Tuple[int, int]]:
    """(servers, hw_year_min) of every replay cohort serve_compute uses.

    The slow scalar cohorts on the single 2016 year are left out.
    """
    return [(servers, year) for servers in COMPUTE_COHORTS
            for year in range(2012, 2017)
            if not (servers in SCALAR_COHORTS and year == 2016)]


def compute_probe(seed: int, shift: int = 0, stream: str = "probe") -> List[Payload]:
    """The serve_compute cold set: one query on every cohort the stream uses.

    Sent first to each fresh daemon, it pays every engine build the
    traffic will need, so the timed phases run on warm engines for any
    seed.  Policies and power-off flags alternate instead of being
    drawn, so the set costs the same under every seed; a ``shift`` of 1
    to 3 starts the alternation elsewhere, which gives every replay a
    key of its own while the work stays alike (the warm sets).  Its
    replays use 8 steps, which the stream never does, so no probe key
    recurs later.
    """
    rng = _rng("serve_compute", seed, stream)
    probe: List[Payload] = [
        {"family": "placement", "servers": servers, "policy": POLICIES[(i + shift) % 2],
         "demand_fraction": round(rng.uniform(0.05, 0.95), 9)}
        for i, servers in enumerate(COMPUTE_COHORTS)
    ]
    probe += [{"family": "cap", "servers": servers, "policy": POLICIES[(i + shift) % 2],
               "power_cap_w": round(servers * rng.uniform(60.0, 130.0), 6)}
              for i, servers in enumerate(SCALAR_COHORTS)]
    probe += [{"family": "replay", "servers": servers, "hw_year_min": year,
               "steps": 8, "policy": POLICIES[(i + shift) % 2],
               "power_off_unused": (i + shift) % 4 >= 2}
              for i, (servers, year) in enumerate(_replay_cohorts())]
    return probe


def _fresh_replay(rng: random.Random, used: Set[Tuple],
                  policy: str) -> Optional[Payload]:
    """A replay key not sent before, or None once the few hundred are spent.

    Replay keys have only discrete fields, so distinct keys come from
    the cohort, hardware-year range, steps and power-off choices.
    """
    cohorts = _replay_cohorts()
    for _attempt in range(100):
        servers, year_min = rng.choice(cohorts)
        payload = {"family": "replay", "servers": servers, "policy": policy,
                   "steps": rng.randint(4, 7), "hw_year_min": year_min,
                   "power_off_unused": rng.random() < 0.5}
        if tuple(sorted(payload.items())) not in used:
            return payload
    return None


def arrivals(seed: int, workload: str, rate_per_s: float,
             seconds: float) -> List[float]:
    """Poisson arrival offsets (seconds from phase start) at a fixed rate."""
    rng = _rng(workload, seed, "arrivals")
    offsets: List[float] = []
    now = rng.expovariate(rate_per_s)
    while now < seconds:
        offsets.append(now)
        now += rng.expovariate(rate_per_s)
    return offsets


def offline_seeds(seed: int, count: int) -> List[int]:
    """Corpus seeds for offline_build's cold/warm rounds."""
    rng = _rng("offline_build", seed, "corpus-seeds")
    return rng.sample(range(1, 100_000), count)


def sample_flags(seed: int, workload: str, share: float) -> Iterator[bool]:
    """Which requests (in stream order) the answer check re-runs."""
    rng = _rng(workload, seed, "sample")
    while True:
        yield rng.random() < share
