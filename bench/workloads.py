"""Seeded job lists for the three benchmark workloads.

Each workload has a config space: a list of job configs, one for every
(command, structure, n) it covers.  The mix follows one rule: every config
appears the same number of times, once per round.  No usage data exists
for gtlab, so this mix is synthetic; it weights configs equally, not by
what batch users run.  The parameters that set a job's cost and that the
config space leaves open (samples, states, steps) are fixed per command.

A run's job list is `rounds` rounds of the config space.  Every job gets
its own draws from the workload seed: its sampling seed, the rauch moduli
and the genus1 gtsys step h; the whole list is then shuffled.  Only
commands a structure supports are drawn: genus2 has no enhancement and no
collidable punctures, so it gets no `potentials`, `hydro`, `reconstruct`
or `collide` jobs.  Configs that exit 1 stay in (see `known_failures` in
record.json); the generator never looks at a verdict.
"""

from __future__ import annotations

import random

TORUS = (
    [{"command": "verify", "structure": "genus1", "n": n, "samples": 3} for n in (1, 2, 3)]
    + [{"command": "potentials", "structure": "genus1", "n": n, "samples": 10}
       for n in (2, 3, 4)]
    + [
        {"command": "collide", "structure": "genus1", "n": 3, "samples": 1},
        # n=1: at n=3 one pushforward sample costs 1.8 to 10 s depending on the seed
        {"command": "pushforward", "structure": "genus1", "n": 1, "samples": 1},
        {"command": "hydro", "structure": "genus1", "n": 3},
        {"command": "reconstruct", "structure": "genus1", "n": 3, "samples": 10},
        {"command": "report", "samples": 3},
        # the smallest gtsys job; h is drawn per job from {0.005, 0.01, 0.02}
        {"command": "gtsys", "structure": "genus1", "n": 1, "states": 2, "steps": 2},
    ]
)

_RATIONAL_N = {"benney": (1, 2, 3, 4), "genus0": (1, 2, 3)}
RATIONAL = (
    [{"command": c, "structure": s, "n": n}
     for c in ("verify", "potentials") for s, ns in _RATIONAL_N.items() for n in ns]
    + [{"command": "collide", "structure": s, "n": n, "samples": 20}
       for s in _RATIONAL_N for n in (2, 3)]
    + [{"command": "pushforward", "structure": s, "n": n, "samples": 10}
       for s in _RATIONAL_N for n in (1, 2)]
    + [{"command": "gtsys", "structure": s, "n": n, "states": 5, "steps": 4}
       for s in _RATIONAL_N for n in (1, 2)]
    + [{"command": c, "structure": s, "n": n}
       for c in ("hydro", "reconstruct") for s in _RATIONAL_N for n in (2, 3)]
    + [{"command": "verify", "structure": "genus2", "samples": 60},
       {"command": "pushforward", "structure": "genus2", "samples": 10},
       {"command": "gtsys", "structure": "genus2", "states": 5, "steps": 4}]
)

PERIODS = [{"command": "rauch", "nodes": n} for n in (100, 200, 400)]

CONFIGS = {"torus": TORUS, "rational": RATIONAL, "periods": PERIODS}

# Rounds in a run of REF_SECONDS; a run of --seconds S has S / REF_SECONDS
# times as many, a count that depends on S alone, never on how fast the
# program under test is.  Scaled to the reference host speed (see
# worker.py), a round took 4.8 s on torus, 2.75 s on rational and 1.8 s on
# periods when the benchmark was defined.  Torus gets 6 rounds (about
# 29 s) instead of 4: with 4 or 5 the job_tail_s rank falls among the
# pushforward jobs, whose cost depends on the seed, or between them and
# the hydro jobs, and read 0.17 to 0.27 s across five seeds.  Periods gets
# 14 (about 25 s) instead of 11, so that the job_tail_s rank is the fourth
# fastest 400-node job rather than the fastest one.
REF_SECONDS = 20
ROUNDS = {"torus": 6, "rational": 7, "periods": 14}

# per-job latency percentile with at least 10 jobs beyond it: (J - 10) / J
TAIL_BEYOND = 10


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS[workload] * seconds / REF_SECONDS))


def _moduli(rng: random.Random) -> list[float]:
    """1 < a < b < c with every gap (1 to a, a to b, b to c) in [0.3, 1.5]."""
    out, last = [], 1.0
    for _ in range(3):
        last += round(rng.uniform(0.3, 1.5), 4)
        out.append(round(last, 4))
    return out


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The job configs of one run, in run order."""
    if workload not in CONFIGS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(CONFIGS)}")
    rng = random.Random(f"gtlab-bench:{workload}:{seed}")
    jobs = []
    for _ in range(rounds(workload, seconds)):
        for template in CONFIGS[workload]:
            cfg = dict(template, seed=rng.randrange(1, 2**31))
            if cfg["command"] == "rauch":
                cfg["moduli"] = _moduli(rng)
            if cfg["command"] == "gtsys" and cfg["structure"] == "genus1":
                cfg["h"] = rng.choice((0.005, 0.01, 0.02))
            jobs.append(cfg)
    rng.shuffle(jobs)
    return jobs


def tail_rank(job_count: int) -> int:
    """Index into the ascending latencies of the job with TAIL_BEYOND beyond it."""
    return max(job_count - TAIL_BEYOND - 1, 0)
