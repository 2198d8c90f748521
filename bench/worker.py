"""One benchmark process: set up, run a workload's job list, judge every job.

run.py starts this script in a fresh interpreter for each workload, so
that setup time and peak memory belong to that workload alone.  Jobs go
through gtlab's public entry point ``gtlab.cli.run(cfg, out_path)`` one
after another (a closed loop with one client, as a batch user waits for
each job before sending the next).  The script prints one JSON line.

Modes:
  setup  import gtlab with numpy and scipy, generate the workload, finish
         the lazy imports a job would otherwise pay for, and report when
         that was done;
  run    setup, then one pass over the job list, which workloads.py
         sizes from --seconds alone;
  trace  setup, one untraced pass, then one pass under the span tracer.

The host's speed swings: a fixed loop ran 1.5x slower for stretches of
tens of seconds, with nothing else running in the guest, and the same
job's latency spread by a quarter from one second to the next.  So a
fixed probe runs after setup, before the first job and after every job,
and every time is scaled to the host speed the probe had when the
benchmark was defined: time / (probe time nearby / the probe's reference
time).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# report entries that are not residuals against a tolerance
PSEUDO = {"reduction_order", "hydro_dimension", "period_positivity"}

# a job is scaled by the median of this many probes nearest to its middle:
# the one just before it, the one just after it and one more
PROBE_NEAREST = 3


def interp_work() -> None:
    """Interpreted complex arithmetic and small numpy calls, the work of
    jets, sampling and circle quadrature."""
    z, acc = 0.3 + 0.1j, 0j
    for _ in range(18000):
        z = z * (0.9995 + 0.001j) + 0.001
        acc += cmath.exp(-abs(z)) * z
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(900):
        a = np.cos(a) @ np.eye(64) * 0.5


def eig_work() -> None:
    """A dense symmetric eigenvalue solve, the work of numpy's leggauss."""
    np.linalg.eigvalsh(np.cos(np.add.outer(np.arange(512.0), np.arange(512.0)) * 0.37))


# Each workload's probe does the kind of work its jobs do, with its median
# time on a quiet host (2 vCPUs, one BLAS thread).  The host slows the two
# kinds by different factors: with the interpreted probe, the scaled time
# of the fastest 400-node rauch job still read 0.92 to 1.42 s across ten
# periods runs.
PROBES = {"torus": (interp_work, 0.0107), "rational": (interp_work, 0.0107),
          "periods": (eig_work, 0.0200)}


def probe(workload: str) -> tuple[float, float]:
    """(the probe's middle on the perf_counter clock, its slowness: the
    workload's probe time now over its reference time)."""
    work, reference_s = PROBES[workload]
    t0 = time.perf_counter()
    work()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, (t1 - t0) / reference_s


def scale(intervals, probes) -> list[float]:
    """Each (start, seconds) interval scaled by the probes nearest to it."""
    at = np.array([t for t, _ in probes])
    slow = np.array([x for _, x in probes])
    out = []
    for start, seconds in intervals:
        near = np.argsort(np.abs(at - start - seconds / 2), kind="stable")[:PROBE_NEAREST]
        out.append(seconds / float(np.median(slow[near])))
    return out


def setup(workload: str, seed: int, seconds: float):
    sys.path.insert(0, str(ROOT / "src"))
    import numpy.polynomial.legendre  # noqa: F401  (numpy loads it lazily)
    import scipy.linalg  # noqa: F401  (hierarchy imports it on the first hydro job)

    import gtlab.cli
    import workloads

    if Path(gtlab.__file__).resolve().parent != ROOT / "src" / "gtlab":
        raise SystemExit(f"imported gtlab from {gtlab.__file__}, not from {ROOT / 'src'}")
    return gtlab.cli, workloads.generate(workload, seed, seconds)


def run_pass(run, workload: str, jobs: list[dict], out: Path, tracer=None) -> dict:
    """Send every job once; report bytes are judged after the pass."""
    txt = out.with_suffix(".txt")
    exits, bodies, latencies = [], [], []
    digest = hashlib.sha256()
    probes = [probe(workload)]
    for i, cfg in enumerate(jobs):
        out.unlink(missing_ok=True)
        txt.unlink(missing_ok=True)
        arg = json.loads(json.dumps(cfg))  # the report echoes the config object
        if tracer is not None:
            tracer.job_id = i
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = run(arg, str(out))
        except Exception as exc:  # a traceback fails the job, not the run
            rc = f"raised {type(exc).__name__}: {exc}"
        latencies.append((t0, time.perf_counter() - t0))
        body = out.read_bytes() if out.exists() else None
        exits.append(rc)
        bodies.append(body)
        digest.update(b"<missing>" if body is None else b"%d\n" % len(body) + body)
        probes.append(probe(workload))

    failed, problems, resid = [], [], []
    for i, (cfg, rc, body) in enumerate(zip(jobs, exits, bodies)):
        reason, problem, logs = judge(cfg, rc, body)
        if reason is not None:
            failed.append([i, reason])
        if problem is not None:
            problems.append(f"job {i} {json.dumps(cfg)}: {problem}")
        resid.extend(logs)
    scaled = scale(latencies, probes)
    return {
        "wall_s": sum(scaled),
        "raw_wall_s": sum(lat for _, lat in latencies),
        "latencies": scaled,
        "probes": len(probes),
        "digest": digest.hexdigest(),
        "failed": failed,
        "problems": problems,
        "resid_log10": max(resid) if resid else None,
        "report_bytes": sum(len(b) for b in bodies if b is not None),
    }


def judge(cfg: dict, rc, body: bytes | None):
    """(why the job failed or None, what is wrong with its report or None,
    log10(residual / tolerance) of each residual entry).

    A job fails when it does not exit 0, when its report is missing or is
    not JSON, or when any residual in it is non-finite.  The report is
    wrong when it does not echo the config, or when its verdicts disagree
    with its own numbers or with the exit code.
    """
    if not isinstance(rc, int):
        return rc, None, []
    if body is None:
        return f"exit {rc}, no report", None, []
    try:
        rep = json.loads(body)
        entries = rep["reports"]
        # float() also reads the strings cli writes for a non-finite float
        values = [(float(e["max_residual"]), float(e["mean_residual"]),
                   float(e["tolerance"])) for e in entries]
    except (ValueError, KeyError, TypeError) as exc:
        return f"exit {rc}, unreadable report ({exc})", None, []

    reason = None
    if not all(math.isfinite(v) for triple in values for v in triple[:2]):
        reason = "non-finite residual"
    elif rc != 0:
        bad = sorted({e["identity"] for e in entries if not e["pass"]})
        reason = f"exit {rc}" + (f": {', '.join(bad)}" if bad else f": {rep.get('error')}")

    problem = None
    verdict = "pass" if entries and all(e["pass"] for e in entries) else "fail"
    if rep.get("error") is not None:
        verdict = "fail"
    if rep.get("config") != cfg:
        problem = "report does not echo the config"
    elif rep.get("verdict") != verdict or (rc == 0) != (verdict == "pass"):
        problem = f"verdict {rep.get('verdict')!r} with exit {rc}"
    else:
        for e, (mx, _, tol) in zip(entries, values):
            if e["identity"] not in PSEUDO and e["pass"] != (mx < tol):
                problem = f"{e['identity']}: pass={e['pass']} but residual {mx} vs tol {tol}"
                break

    logs = [math.log10(mx / tol) for e, (mx, _, tol) in zip(entries, values)
            if e["identity"] not in PSEUDO and tol > 0 and 0 < mx < math.inf]
    return reason, problem, logs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out-dir", type=Path)
    args = ap.parse_args()

    cli, jobs = setup(args.workload, args.seed, args.seconds)
    result = {"ready": time.monotonic(), "jobs": len(jobs)}
    result["setup_scale"] = 1 / statistics.median(probe(args.workload)[1]
                                                  for _ in range(PROBE_NEAREST))
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    out = args.out_dir / "report.json"
    passes = [run_pass(cli.run, args.workload, jobs, out)]
    if args.mode == "trace":
        from tracer import Tracer, per_layer_units, zero_call_violations

        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(tracer.span("cli.run", cli.run), args.workload, jobs, out,
                                   tracer))
        finally:
            restored = tracer.uninstall()
        tracer.save(str(args.out_dir.parent / f"trace-{args.workload}.npz"))
        traced = passes[1]
        units = per_layer_units()
        layer = tracer.layer_metrics(units, traced["report_bytes"],
                                     traced["wall_s"] / passes[0]["wall_s"] - 1.0)
        min_self, sum_self = tracer.self_time_bounds()
        checks = zero_call_violations(args.workload, layer, units)
        checks += [f"{name} not found, so its metrics would read 0" for name in tracer.missing]
        if traced["digest"] != passes[0]["digest"]:
            checks.append("the traced pass's report digest differs from the untraced pass's")
        if not restored:
            checks.append("a wrapper was left installed after the traced run")
        if min_self < -1e-9:
            checks.append(f"negative self time {min_self}")
        if sum_self > traced["raw_wall_s"]:
            checks.append(f"self times sum to {sum_self} s > traced wall {traced['raw_wall_s']} s")
        result.update(layer={name: {"value": layer[name], "unit": units[name]}
                             for name in layer},
                      checks=checks, spans=len(tracer.start))
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
