"""Batch command-line entry point.

One process runs one job described by a JSON config: the requested command
(verify / collide / pushforward / potentials / gtsys / hydro / reconstruct /
rauch / report), a structure name from the catalog, and seeded numeric
parameters.  The run emits a machine-readable JSON report (deterministic
bytes for a fixed config and seed: complex numbers as [re, im] pairs,
fixed key order, no timing inside) plus an adjacent plain-text summary
which carries the wall-clock timing.

Exit codes: 0 all identities pass, 1 numeric failure (report written),
2 config/schema violation (no report body), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring
from typing import Any

import numpy as np

from . import __version__, catalog, gtsys, hierarchy, hyperell
from .core import (
    CoordinateChange,
    _make_report,
    collide_points_closed,
    pushforward,
    verify_all,
    verify_lambda,
    verify_potential,
)
from .errors import ConfigError, GTLabError
from .kernel import Domain, JetEvaluator

COMMON_KEYS = {"command", "structure", "n", "seed", "samples", "tol", "out"}
COMMAND_KEYS = {
    "verify": set(),
    "collide": {"groups"},
    "pushforward": {"scale"},
    "potentials": set(),
    "gtsys": {"M", "states", "steps", "h"},
    "hydro": {"z_count", "svd_tol", "triple"},
    "reconstruct": {"pair", "index"},
    "rauch": {"moduli", "delta", "nodes", "branch"},
    "report": set(),
}
POSITIVE_KEYS = {"n", "samples", "tol", "M", "states", "steps", "h",
                 "z_count", "svd_tol", "delta", "nodes"}
INT_KEYS = {"seed", "n", "samples", "M", "states", "steps", "z_count", "nodes",
            "index", "branch"}
DEFAULT_N = {"benney": 3, "genus0": 2, "genus1": 2}
# the keys that set a job's cost: the largest value each takes, and what the
# cost grows with; beyond it a job runs for hours or exhausts memory, so it
# exits 2 (rauch's nodes are bounded by hyperell.MAX_NODES)
COST_BOUNDS = {
    "n": (16, "punctures; a sample costs O(n^2) partials in bracket and cocycle"),
    "samples": (1000, "sampled points; each costs one full residual per identity"),
    "states": (1000, "gtsys states; each costs O(M^3) mixed derivatives"),
    "steps": (64, "reduction steps; the fine march visits (2 steps + 1)^2 grid points"),
    "M": (8, "points per gtsys state; a state costs O(M^3) mixed derivatives"),
    "z_count": (1000, "spectral points; hydro samples 2 z_count of them per potential"),
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int_list(val) -> bool:
    return isinstance(val, list) and all(_is_int(x) for x in val)


def validate_config(cfg: dict) -> dict:
    """Schema check; raises ConfigError with a reason on any violation."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    command = cfg.get("command")
    if not isinstance(command, str) or command not in COMMAND_KEYS:
        raise ConfigError(f"unknown or missing command: {command!r}")
    allowed = COMMON_KEYS | COMMAND_KEYS[command]
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "seed" not in cfg:
        raise ConfigError("seed is mandatory (no wall-clock defaults)")
    for key in INT_KEYS & set(cfg):
        if not _is_int(cfg[key]) or cfg[key] < 0:
            raise ConfigError(f"{key} must be a non-negative integer, got {cfg[key]!r}")
    for key in POSITIVE_KEYS & set(cfg):
        if not _is_real(cfg[key]) or cfg[key] <= 0:
            raise ConfigError(f"{key} must be a positive number, got {cfg[key]!r}")
    for key, (limit, reason) in COST_BOUNDS.items():
        if key in cfg and cfg[key] > limit:
            raise ConfigError(f"{key} must be at most {limit} ({reason}), got {cfg[key]!r}")
    if "scale" in cfg and not _is_real(cfg["scale"]):
        raise ConfigError(f"scale must be a real number, got {cfg['scale']!r}")
    if "out" in cfg and not isinstance(cfg["out"], str):
        raise ConfigError("out must be a path string")
    if command not in ("rauch", "report"):
        name = cfg.get("structure")
        if not isinstance(name, str) or name not in catalog.CATALOG:
            raise ConfigError(
                f"unknown structure {name!r}; choose from "
                f"{sorted(catalog.CATALOG)}"
            )
    if command == "rauch":
        moduli = cfg.get("moduli", [1.5, 2.9, 4.1])
        if (not isinstance(moduli, (list, tuple)) or len(moduli) != 3
                or not all(_is_real(x) for x in moduli)):
            raise ConfigError("moduli must be three real numbers")
    for key, length in (("pair", 2), ("triple", 3)):
        val = cfg.get(key, list(range(length)))
        if not (_is_int_list(val) and len(val) == len(set(val)) == length):
            raise ConfigError(f"{key} must be {length} distinct integers, got {val!r}")
    groups = cfg.get("groups", [])
    if not (isinstance(groups, list) and all(_is_int_list(grp) for grp in groups)):
        raise ConfigError(f"groups must be a list of slot lists, got {groups!r}")
    slots = [slot for grp in groups for slot in grp]
    if len(set(slots)) != len(slots):
        raise ConfigError("collision groups must be disjoint")
    return cfg


def _build(cfg):
    ent = catalog.CATALOG[cfg["structure"]]
    n = int(cfg.get("n", DEFAULT_N.get(ent.name, 2)))
    return ent, ent.build(n), n


def _build_enhanced(cfg):
    ent = catalog.CATALOG[cfg["structure"]]
    if ent.build_enhanced is None:
        raise ConfigError(f"{ent.name} has no enhancement in the catalog")
    n = int(cfg.get("n", DEFAULT_N.get(ent.name, 2)))
    return ent, ent.build_enhanced(n), n


def _check_indices(key: str, indices, count: int) -> None:
    for idx in indices:
        if not 0 <= idx < count:
            raise ConfigError(f"{key} index {idx} out of range for {count} potentials")


# ---------------------------------------------------------------------------
# command handlers: each returns (reports, extras), every report a
# VerificationReport whose verdict is max_residual < tolerance
# ---------------------------------------------------------------------------


def _cmd_verify(cfg):
    samples = int(cfg.get("samples", 100))
    tol = float(cfg.get("tol", 1e-8))
    seed = cfg["seed"]
    ent, s, _ = _build(cfg)
    reports = verify_all(s, samples, seed, tol)
    if ent.build_enhanced is not None:
        _, enh, n = _build_enhanced(cfg)
        reports.append(verify_lambda(enh, samples, seed + 3, tol))
    return reports, {}


def _cmd_potentials(cfg):
    samples = int(cfg.get("samples", 50))
    tol = float(cfg.get("tol", 1e-8))
    seed = cfg["seed"]
    ent, enh, n = _build_enhanced(cfg)
    pots = catalog.build_potentials(ent.name, n)
    return [verify_potential(enh, pot, samples, seed + idx, tol)
            for idx, pot in enumerate(pots)], {}


def _cmd_collide(cfg):
    samples = int(cfg.get("samples", 40))
    tol = float(cfg.get("tol", 1e-6))
    seed = cfg["seed"]
    ent, s, _ = _build(cfg)
    collided = collide_points_closed(s, cfg.get("groups", [[0, 1]]))
    return (verify_all(collided, samples, seed, tol),
            {"collided_label": collided.label, "m": collided.m})


def quadratic_mu(m: int, scale: float) -> JetEvaluator:
    """mu = p + scale u1 p^2 over (p, u_1..u_m), the pushforward command's
    coordinate change, with its value and partials in closed form at a
    point or on a tuple of argument columns."""

    def mu_fn(*args):
        return args[0] + scale * args[1] * args[0] ** 2

    def mu_partial(args, multi):
        # d_p^k d_u1^r of mu; the value (k + r = 0) is mu_fn's
        pt, u1 = args[0], args[1]
        k, r = multi[0], multi[1]
        if not any(multi):
            return mu_fn(*args)
        if any(multi[2:]) or r > 1 or k > 2:
            return 0.0 + 0.0j
        if r:
            return (scale * pt**2, 2.0 * scale * pt, 2.0 * scale)[k]
        return 1.0 + 2.0 * scale * u1 * pt if k == 1 else 2.0 * scale * u1

    def mu_pf(args, multis):
        return [mu_partial(args, multi) for multi in multis]

    return JetEvaluator(1 + m, mu_fn, domain=Domain(), partial_fn=mu_pf, label="mu")


def _cmd_pushforward(cfg):
    samples = int(cfg.get("samples", 40))
    tol = float(cfg.get("tol", 1e-6))
    seed = cfg["seed"]
    scale = float(cfg.get("scale", 0.05))
    ent, s, _ = _build(cfg)
    pushed = pushforward(s, CoordinateChange(quadratic_mu(s.m, scale)))
    return verify_all(pushed, samples, seed, tol), {"mu": "p + scale*u1*p^2", "scale": scale}


def _cmd_gtsys(cfg):
    seed = cfg["seed"]
    tol = float(cfg.get("tol", 1e-9))
    states = int(cfg.get("states", 50))
    M = int(cfg.get("M", 3))
    _, s, _ = _build(cfg)
    sys_ = gtsys.build_system(s)
    comp = gtsys.compatibility_residual(sys_, M=M, states=states, seed=seed,
                                        tol=tol)
    steps = int(cfg.get("steps", 10))
    h = float(cfg.get("h", 0.02))
    ratio, coarse, fine = gtsys.convergence_ratio(sys_, M=2, steps=steps,
                                                  h=h, seed=seed)
    # a second-order march cuts its defect by 4 when h halves (Richardson);
    # ratio - 4 is exact between 2 and 8, so this passes 3.5 < ratio < 4.5
    order = _make_report("reduction_order", [abs(ratio - 4.0)], 0.5, seed, ratio=ratio,
                         steps=steps, h=h, coarse_residual=coarse.residual,
                         fine_residual=fine.residual)
    blow_up = _make_report("reduction_blow_up", [coarse.blow_up + fine.blow_up], 0.5, seed,
                           coarse_blow_up_at=coarse.blow_up_at,
                           fine_blow_up_at=fine.blow_up_at)
    return [comp, order, blow_up], {}


def _cmd_hydro(cfg):
    seed = cfg["seed"]
    tol = float(cfg.get("tol", 1e-8))
    z_count = int(cfg.get("z_count", 40))
    svd_tol = float(cfg.get("svd_tol", 1e-8))
    i, j, k = cfg.get("triple", [0, 1, 2])
    ent, enh, n = _build_enhanced(cfg)
    pots = catalog.build_potentials(ent.name, n)
    fam = hierarchy.PotentialFamily(enh.base, pots, enhanced=enh,
                                    label=ent.name)
    v = tuple(fam.structure.sample(1, seed, 1)[0, 1:].tolist())
    hs = hierarchy.hydro_coefficients(fam, i, j, k, v, z_count=z_count,
                                      seed=seed, svd_tol=svd_tol,
                                      residual_tol=tol)
    D, m = hs.D, fam.m
    reports = [
        # how far the integer D lies outside [m, 2m - 1]
        _make_report("hydro_dimension", [max(m - D, D - (2 * m - 1), 0)], 0.5, seed,
                     D=D, m=m, triple=[i, j, k]),
        _make_report("hydro_expansion", [hs.expansion_residual], tol, seed, D=hs.D,
                     rank_abc=hs.rank_abc),
    ]
    extras = {
        "D": D,
        "fiber_point": list(v),
        "matrices": [
            {"name": name, "rows": hs.D, "cols": fam.m,
             "row_index": "equation r", "col_index": "field l",
             "data": mat.tolist()}
            for name, mat in (("a", hs.a), ("b", hs.b), ("c", hs.c))
        ],
        "basis_rows": list(hs.basis_rows),
    }
    return reports, extras


def _cmd_reconstruct(cfg):
    seed = cfg["seed"]
    tol = float(cfg.get("tol", 1e-8))
    samples = int(cfg.get("samples", 30))
    pair = cfg.get("pair", [0, 1])
    index = int(cfg.get("index", 0))
    ent, enh, n = _build_enhanced(cfg)
    pots = catalog.build_potentials(ent.name, n)
    _check_indices("pair", pair, len(pots))
    _check_indices("index", [index], len(pots))
    fam = hierarchy.PotentialFamily(enh.base, pots, enhanced=enh,
                                    label=ent.name)
    i, j = pair
    _, rep_f = hierarchy.reconstruct_f(fam, i, j, samples=samples,
                                       seed=seed, tol=tol)
    _, rep_l = hierarchy.reconstruct_lambda(fam, index, samples=samples,
                                            seed=seed + 1, tol=tol)
    return [rep_f, rep_l], {}


def _cmd_rauch(cfg):
    seed = cfg["seed"]
    tol = float(cfg.get("tol", 1e-4))
    moduli = cfg.get("moduli", [1.5, 2.9, 4.1])
    delta = float(cfg.get("delta", 1e-4))
    nodes = int(cfg.get("nodes", hyperell.DEFAULT_NODES))
    branches = [int(cfg["branch"])] if "branch" in cfg else [0, 1, 2]
    pd, checks = hyperell.rauch(moduli, branches, delta=delta, nodes=nodes)
    reports = [
        _make_report("period_symmetry", [pd.symmetry_error], 1e-8, seed,
                     moduli=list(moduli)),
        _make_report("period_positivity", [pd.nonpositive], 0.5, seed,
                     min_eigenvalue=float(np.min(pd.im_eigenvalues))),
    ]
    reports += [_make_report("rauch_variation", [rd.max_rel_error], tol, seed,
                             branch=rd.branch, delta=delta,
                             step_stability=rd.step_stability)
                for rd in checks]
    return reports, {"period_matrix": pd.B.tolist()}


def _cmd_report(cfg):
    reports = []
    for name in catalog.CATALOG:
        # a config's tol holds for every structure; without one, genus2 is
        # held to 1e-6
        sub = {"samples": 40, "tol": 1e-6 if name == "genus2" else 1e-8, **cfg,
               "structure": name}
        entries, _ = _cmd_verify(sub)
        for r in entries:
            r.params["structure"] = name
        reports.extend(entries)
    return reports, {}


HANDLERS = {
    "verify": _cmd_verify,
    "collide": _cmd_collide,
    "pushforward": _cmd_pushforward,
    "potentials": _cmd_potentials,
    "gtsys": _cmd_gtsys,
    "hydro": _cmd_hydro,
    "reconstruct": _cmd_reconstruct,
    "rauch": _cmd_rauch,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _encode(obj: Any, indent: str, out: list[str]) -> None:
    """Append to ``out`` the JSON text of ``obj`` at ``indent``, in one walk, as
    ``json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)`` writes it,
    with the report's forms: complex -> [re, im], a numpy float or complex ->
    python's, and a non-finite float (numpy's or a complex part too) -> its
    repr string.  Handlers hand over ints and lists, never numpy ints or
    arrays; any other type raises ``TypeError``, as ``json.dumps`` does."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(text if math.isfinite(obj) else encode_basestring(text))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple, dict)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            out.append(brackets)
            return
        inner, sep = indent + "  ", brackets[0] + "\n"
        for item in obj.items() if isinstance(obj, dict) else obj:
            out.append(sep + inner)
            sep = ",\n"
            if isinstance(obj, dict):
                out.append(encode_basestring(str(item[0])) + ": ")
                item = item[1]
            _encode(item, inner, out)
        out.append("\n" + indent + brackets[1])
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _encode([float(obj.real), float(obj.imag)], indent, out)
    elif isinstance(obj, np.floating):
        _encode(float(obj), indent, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit_report(report: dict, path: str, summary: str) -> None:
    """Atomic JSON write plus an adjacent .txt human summary."""
    parts: list[str] = []
    _encode(report, "", parts)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
        fh.write("\n")
    os.replace(tmp, path)
    stem, _ = os.path.splitext(path)
    with open(stem + ".txt", "w", encoding="utf-8") as fh:
        fh.write(summary)


def _summary_text(report: dict, elapsed: float) -> str:
    lines = [
        f"gtlab {report['artifact_version']} - command "
        f"{report['config'].get('command')}",
        f"elapsed: {elapsed:.2f} s",
    ]
    for entry in report["reports"]:
        verdict = "PASS" if entry["pass"] else "FAIL"
        lines.append(
            f"  [{verdict}] {entry['identity']}: max residual "
            f"{entry['max_residual']:.3e} (tol {entry['tolerance']:.1e})"
        )
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


def run(cfg: dict, out_path: str | None) -> int:
    try:
        cfg = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    error = None
    try:
        reports, extras = HANDLERS[cfg["command"]](cfg)
        entries = [r.as_dict() for r in reports]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GTLabError, ArithmeticError) as exc:  # an overflow fails the job too
        entries, extras = [], {}
        error = f"{type(exc).__name__}: {exc}"
    verdict = "pass" if entries and all(e["pass"] for e in entries) else "fail"
    if error is not None:
        verdict = "fail"
    report = {
        "artifact_version": __version__,
        "config": cfg,
        "reports": entries,
        "extras": extras,
        "error": error,
        "verdict": verdict,
    }
    elapsed = time.perf_counter() - t0
    out = out_path or cfg.get("out") or "gtlab-report.json"
    summary = _summary_text(report, elapsed)
    try:
        emit_report(report, out, summary)
    except OSError as exc:
        print(f"i/o error writing report: {exc}", file=sys.stderr)
        return 3
    print(summary, end="")
    return 0 if verdict == "pass" else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gtlab",
        description="verify and analyze GT structures from the catalog",
    )
    parser.add_argument("--config", help="path to a JSON job config")
    parser.add_argument("--out", help="report output path (JSON)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--list-structures", action="store_true",
                        help="print catalog names and exit")
    args = parser.parse_args(argv)
    if args.list_structures:
        for name, ent in catalog.CATALOG.items():
            print(f"{name}: {ent.description}")
        return 0
    if not args.config:
        parser.error("--config is required (or use --list-structures)")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if not isinstance(cfg, dict):
            print("config must be a JSON object", file=sys.stderr)
            return 2
        cfg["seed"] = args.seed
    return run(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
