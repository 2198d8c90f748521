"""gtlab benchmark: seeded CLI job workloads, end to end and layer by layer.

    python3 bench/run.py --workload torus --seed 1 --seconds 20 --trace 0

Workloads (job lists from bench/workloads.py, generated from --seed):
  torus     genus1 jobs only; theta/rho jets do most of the work
  rational  benney, genus0 and genus2 jobs; no theta, many short jobs
  periods   rauch jobs; only hyperell and numpy work

The job list has a fixed number of rounds for a given --seconds (one job
per config of the workload per round, each with its own seeds).  With
--trace 0 one process runs the list once and the end-to-end metrics are
reported; four setup-only processes, two before it and two after, add to
the setup-time median.  Times are scaled to a reference host speed by
probes run between jobs (see worker.py).  With --trace 1 one process runs
the list untraced and then traced, and the per-layer metrics are
reported.  Every process runs with one BLAS/OpenMP thread.  The last line
of standard output is one JSON object; the lines before it are a readable
table with the failed jobs and the report digest, which two runs with the
same seed must share.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import CONFIGS, generate, tail_rank  # noqa: E402

END_TO_END = (("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def spawn(mode: str, args, out_dir: Path) -> tuple[dict, float]:
    """Run worker.py to completion; (its JSON result, monotonic spawn time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", str(out_dir)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **ENV),
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), spawned


def setup_time(res: dict, spawned: float) -> float:
    """Seconds from starting a worker to its being ready, scaled to the
    reference host speed by the probes the worker ran right after."""
    return (res["ready"] - spawned) * res["setup_scale"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gtlab" / "__init__.py").is_file():
        print(f"no gtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        probes = 0 if args.trace else 2
        setups = [setup_time(*spawn("setup", args, out_dir)) for _ in range(probes)]
        res, spawned = spawn("trace" if args.trace else "run", args, out_dir)
        setups.append(setup_time(res, spawned))
        setups += [setup_time(*spawn("setup", args, out_dir)) for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    jobs = generate(args.workload, args.seed, args.seconds)
    untraced = res["passes"][0]
    attempted = len(jobs)
    n_failed = len(untraced["failed"])
    problems = list(untraced["problems"])
    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs, "
          f"closed loop, 1 client, trace={args.trace}")
    print(f"report digest sha256:{untraced['digest']}")
    if args.trace:
        print(f"traced digest sha256:{res['passes'][1]['digest']}; {res['spans']} spans, "
              f"peak RSS {res['peak_rss_mb']:.0f} MB")
        problems += res["checks"]
        metrics = res["layer"]
    else:
        latencies = sorted(untraced["latencies"])
        tail = tail_rank(attempted)
        values = {
            "wall_s": untraced["wall_s"],
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": latencies[tail],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"times are scaled to the reference host speed by {untraced['probes']} probes "
              f"(unscaled sum of job latencies {untraced['raw_wall_s']:.3f} s); job_tail_s is "
              f"job {tail + 1} of {attempted} by latency (p{100 * (tail + 1) // attempted}); "
              f"setup_s is the median of {len(setups)} processes")
        print(f"  {'fail_frac':40s} {n_failed / attempted:>16.6g} ratio ({n_failed} of {attempted} jobs)")
        print(f"  {'resid_log10':40s} {untraced['resid_log10']:>16.6g} log10")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for i, reason in untraced["failed"]:
        print(f"  failed job {i} {json.dumps(jobs[i])}: {reason}")
    for line in problems:
        print(f"  INCORRECT {line}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
