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
import contextlib
import functools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring
from typing import Any, Callable, NamedTuple

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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    # an int past float range is no real number: float() of it overflows
    return math.isfinite(x) if isinstance(x, float) else _is_int(x) and abs(x) <= sys.float_info.max


def _is_int_list(val) -> bool:
    return isinstance(val, list) and all(_is_int(x) for x in val)


def _kind(name: str, admits, read=None, refusal="{key} must be {name}, got {value!r}"):
    """A kind of value, ``name`` (its ``__doc__``): a function of (key, value) that gives
    the value as a handler reads it, or raises ConfigError with ``refusal`` where the
    value is not one ``admits``."""
    def kind(key, value):
        if not admits(value):
            raise ConfigError(refusal.format(key=key, name=name, value=value))
        return value if read is None else read(value)

    kind.__doc__ = name
    return kind


_count = _kind("a non-negative integer", lambda v: _is_int(v) and v >= 0)
_positive_int = _kind("a positive integer", lambda v: _is_int(v) and v > 0)
_positive = _kind("a positive number", lambda v: _is_real(v) and v > 0, float)
_real = _kind("a real number", _is_real, float)
_path = _kind("a path string", lambda v: isinstance(v, str) and v != ""  # and UTF-8 encodable
              and v.encode(errors="ignore").decode() == v, refusal="{key} must be {name}")
_structure = _kind(f"one of {sorted(catalog.CATALOG)}",
                   lambda v: isinstance(v, str) and v in catalog.CATALOG)
_moduli = _kind("three real numbers", lambda v: isinstance(v, (list, tuple)) and len(v) == 3
                and all(map(_is_real, v)), refusal="{key} must be {name}")
_pair, _triple = (_kind(f"{size} distinct integers", lambda v, size=size: _is_int_list(v)
                         and len(v) == len(set(v)) == size) for size in (2, 3))
_slot_lists = _kind("a list of slot lists",
                    lambda v: isinstance(v, list) and all(map(_is_int_list, v)))


def _slot_groups(key, value):
    """a list of disjoint slot lists"""
    slots = [slot for grp in _slot_lists(key, value) for slot in grp]
    if len(set(slots)) != len(slots):
        raise ConfigError("collision groups must be disjoint")
    return value


class Key(NamedTuple):
    """A config key: its kind, its default for each command that takes it (a dict
    holds one per structure), and the bound of a key that sets a job's cost."""

    kind: Callable[[str, Any], Any]
    defaults: dict[str, Any]
    bound: tuple[int, str] | None = None  # the largest value, and what the cost grows with


REQUIRED = object()  # the default of a key every job must give
_STRUCTURED = ("verify", "collide", "pushforward", "potentials", "gtsys", "hydro", "reconstruct")
_EVERY = (*_STRUCTURED, "rauch", "report")

# a job gives only keys its command takes; beyond a bound it runs for hours or
# exhausts memory, so it exits 2
KEYS = {
    "seed": Key(_count, dict.fromkeys(_EVERY, REQUIRED)),  # no wall-clock defaults
    "structure": Key(_structure, dict.fromkeys(_STRUCTURED, REQUIRED)),
    "n": Key(_positive_int, dict.fromkeys((*_STRUCTURED, "report"),
                                          {"benney": 3, "genus0": 2, "genus1": 2, "genus2": 2}),
             (16, "punctures; a sample costs O(n^2) partials in bracket and cocycle")),
    "samples": Key(_positive_int, {"verify": 100, "collide": 40, "pushforward": 40,
                                   "potentials": 50, "reconstruct": 30, "report": 40},
                   (1000, "sampled points; each costs one full residual per identity")),
    "tol": Key(_positive, {"verify": 1e-8, "collide": 1e-6, "pushforward": 1e-6,
                           "potentials": 1e-8, "gtsys": 1e-9, "hydro": 1e-8, "reconstruct": 1e-8,
                           "rauch": 1e-4, "report": {"benney": 1e-8, "genus0": 1e-8,
                                                     "genus1": 1e-8, "genus2": 1e-6}}),
    "out": Key(_path, dict.fromkeys(_EVERY, "gtlab-report.json")),
    "groups": Key(_slot_groups, {"collide": [[0, 1]]}),
    "scale": Key(_real, {"pushforward": 0.05}),
    "M": Key(_positive_int, {"gtsys": 3},
             (8, "points per gtsys state; a state costs O(M^3) mixed derivatives")),
    "states": Key(_positive_int, {"gtsys": 50},
                  (1000, "gtsys states; each costs O(M^3) mixed derivatives")),
    "steps": Key(_positive_int, {"gtsys": 10},
                 (64, "reduction steps; the fine march visits (2 steps + 1)^2 grid points")),
    "h": Key(_positive, {"gtsys": 0.02}),
    "z_count": Key(_positive_int, {"hydro": 40},
                   (1000, "spectral points; hydro samples 2 z_count of them per potential")),
    "svd_tol": Key(_positive, {"hydro": 1e-8}),
    "triple": Key(_triple, {"hydro": [0, 1, 2]}),
    "pair": Key(_pair, {"reconstruct": [0, 1]}),
    "index": Key(_count, {"reconstruct": 0}),
    "moduli": Key(_moduli, {"rauch": [1.5, 2.9, 4.1]}),
    "nodes": Key(_positive_int, {"rauch": hyperell.DEFAULT_NODES},
                 (hyperell.MAX_NODES, "the cap on Gauss nodes; a pass at n builds an n- and a "
                                      "2n-node rule, and a job doubles n only to the cap")),
    "branch": Key(_count, {"rauch": None}),  # None: every branch point
}
TAKES = {command: {key: row for key, row in KEYS.items() if command in row.defaults}
         for command in _EVERY}


def validate_config(cfg: dict) -> dict:
    """``cfg`` resolved through ``KEYS``: its command and each key the command takes, as
    its kind reads it (an integer tol reads 1.0) or at its default, one per structure at
    the job's structure (report keeps them all).  Raises ConfigError with a reason."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    command = cfg["command"] if "command" in cfg else None
    if not isinstance(command, str) or command not in TAKES:
        raise ConfigError(f"unknown or missing command: {command!r}")
    takes = TAKES[command]
    unknown = set(cfg).difference(takes, ("command",))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown, key=str)}")
    job = {"command": command}
    for key, (kind, defaults, bound) in takes.items():
        if key in cfg:
            value = kind(key, cfg[key])
            if bound is not None and value > bound[0]:
                raise ConfigError(f"{key} must be at most {bound[0]} ({bound[1]}), got {value!r}")
        elif defaults[command] is REQUIRED:
            raise ConfigError(f"{key} is mandatory")
        else:
            value = defaults[command]
            if isinstance(value, dict) and "structure" in job:
                value = value[job["structure"]]
        job[key] = value
    return job


@functools.lru_cache(maxsize=128)
def _built(builder, *args):
    """``builder(*args)`` once per process while among the 128 most recently used: a job's
    config fixes what it builds, which its seed never reaches and no handler changes, so no
    report depends on the jobs before it.  The key holds the builder: a replaced one is called."""
    return builder(*args)


def _build(cfg, enhanced=False):
    ent = catalog.CATALOG[cfg["structure"]]
    build = ent.build_enhanced if enhanced else ent.build
    if build is None:
        raise ConfigError(f"{ent.name} has no enhancement in the catalog")
    return ent, _built(build, cfg["n"])


def _check_indices(key: str, indices, count: int) -> None:
    for idx in indices:
        if not 0 <= idx < count:
            raise ConfigError(f"{key} index {idx} out of range for {count} potentials")


# ---------------------------------------------------------------------------
# command handlers: each takes the resolved config and returns (reports,
# extras), every report a VerificationReport whose verdict is max_residual < tolerance
# ---------------------------------------------------------------------------


def _cmd_verify(cfg):
    samples, seed, tol = cfg["samples"], cfg["seed"], cfg["tol"]
    ent, s = _build(cfg)
    reports = verify_all(s, samples, seed, tol)
    if ent.build_enhanced is not None:
        reports.append(verify_lambda(_build(cfg, enhanced=True)[1], samples, seed + 3, tol))
    return reports, {}


def _cmd_potentials(cfg):
    ent, enh = _build(cfg, enhanced=True)
    pots = _built(catalog.build_potentials, ent.name, cfg["n"])
    return [verify_potential(enh, pot, cfg["samples"], cfg["seed"] + idx, cfg["tol"])
            for idx, pot in enumerate(pots)], {}


def _cmd_collide(cfg):
    _, s = _build(cfg)
    collided = _built(collide_points_closed, s, tuple(map(tuple, cfg["groups"])))
    return (verify_all(collided, cfg["samples"], cfg["seed"], cfg["tol"]),
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
    scale = cfg["scale"]
    _, s = _build(cfg)
    pushed = _built(pushforward, s, CoordinateChange(_built(quadratic_mu, s.m, scale)))
    return (verify_all(pushed, cfg["samples"], cfg["seed"], cfg["tol"]),
            {"mu": "p + scale*u1*p^2", "scale": scale})


def _cmd_gtsys(cfg):
    seed, steps, h = cfg["seed"], cfg["steps"], cfg["h"]
    _, s = _build(cfg)
    sys_ = _built(gtsys.build_system, s)
    comp = gtsys.compatibility_residual(sys_, M=cfg["M"], states=cfg["states"], seed=seed,
                                        tol=cfg["tol"])
    ratio, coarse, fine = gtsys.convergence_ratio(sys_, M=2, steps=steps, h=h, seed=seed)
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
    seed, tol = cfg["seed"], cfg["tol"]
    i, j, k = cfg["triple"]
    ent, enh = _build(cfg, enhanced=True)
    pots = _built(catalog.build_potentials, ent.name, cfg["n"])
    fam = hierarchy.PotentialFamily(enh.base, pots, enhanced=enh, label=ent.name)
    v = tuple(fam.structure.sample(1, seed, 1)[0, 1:].tolist())
    hs = hierarchy.hydro_coefficients(fam, i, j, k, v, z_count=cfg["z_count"],
                                      seed=seed, svd_tol=cfg["svd_tol"],
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
    seed, tol, samples = cfg["seed"], cfg["tol"], cfg["samples"]
    pair, index = cfg["pair"], cfg["index"]
    ent, enh = _build(cfg, enhanced=True)
    pots = _built(catalog.build_potentials, ent.name, cfg["n"])
    _check_indices("pair", pair, len(pots))
    _check_indices("index", [index], len(pots))
    fam = hierarchy.PotentialFamily(enh.base, pots, enhanced=enh, label=ent.name)
    i, j = pair
    rep_f = hierarchy.reconstruct_f(fam, i, j, samples=samples, seed=seed, tol=tol)
    rep_l = hierarchy.reconstruct_lambda(fam, index, samples=samples, seed=seed + 1, tol=tol)
    return [rep_f, rep_l], {}


def _cmd_rauch(cfg):
    seed, tol, moduli = cfg["seed"], cfg["tol"], cfg["moduli"]
    branches = [0, 1, 2] if cfg["branch"] is None else [cfg["branch"]]
    pd, checks = hyperell.rauch(moduli, branches, nodes=cfg["nodes"])
    reports = [
        # B on the n and the 2n nodes of the last pass, within their rounding bound
        _make_report("period_convergence", [pd.convergence_error], pd.convergence_tol, seed,
                     predicted_nodes=pd.predicted_nodes, nodes=pd.nodes, passes=pd.passes,
                     gap=pd.gap),
        _make_report("period_symmetry", [pd.symmetry_error], pd.symmetry_tol, seed,
                     moduli=list(moduli)),
        _make_report("period_positivity", [pd.nonpositive], 0.5, seed,
                     min_eigenvalue=pd.min_eigenvalue),
    ]
    reports += [_make_report("rauch_variation", [rd.max_rel_error], tol, seed, branch=rd.branch)
                for rd in checks]
    return reports, {"period_matrix": pd.B.tolist()}


def _cmd_report(cfg):
    reports = []
    for name in catalog.CATALOG:
        # verify on each structure, a default per structure read at it: n,
        # and a tol of 1e-6 on genus2 and 1e-8 on the others
        sub = {key: cfg[key][name] if isinstance(cfg[key], dict) else cfg[key] for key in cfg}
        entries, _ = _cmd_verify({**sub, "structure": name})
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


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return text if math.isfinite(x) else encode_basestring(text)


def _encode(obj: Any, indent: str, out: list[str]) -> None:
    """Append to ``out`` the JSON text of ``obj`` at ``indent``, in one walk, as
    ``json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)`` writes it,
    with the report's forms: complex -> [re, im], a numpy float or complex ->
    python's, and a non-finite float (numpy's or a complex part too) -> its
    repr string.  A container writes its float, str and int children in
    place and hands the others to a call of their own.  Handlers hand over
    ints and lists, never numpy ints or arrays; any other type raises
    ``TypeError``, as ``json.dumps`` does."""
    if isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple, dict)):
        keyed = isinstance(obj, dict)
        brackets = "{}" if keyed else "[]"
        if not obj:
            out.append(brackets)
            return
        inner = indent + "  "
        head, sep = brackets[0] + "\n" + inner, ",\n" + inner
        for item in obj.items() if keyed else obj:
            if keyed:
                head += encode_basestring(str(item[0])) + ": "
                item = item[1]
            kind = type(item)
            if kind is float:
                out.append(head + _float_text(item))
            elif kind is str:
                out.append(head + encode_basestring(item))
            elif kind is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _encode(item, inner, out)
            head = sep
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


def _write(path: str, data: bytes) -> None:
    """``data`` to the file at ``path``, created or truncated, by os.write
    calls until every byte is out: one call unless a write comes up short."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def emit_report(report: dict, path: str, summary: str) -> None:
    """The report's JSON and then its .txt summary, UTF-8 encoded, each in
    one write of its bytes; the JSON goes to a temporary file first and
    replaces ``path`` whole, so a failed write leaves a previous report."""
    parts: list[str] = []
    _encode(report, "", parts)
    parts.append("\n")
    tmp = path + ".tmp"
    try:
        _write(tmp, "".join(parts).encode())
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    _write(os.path.splitext(path)[0] + ".txt", summary.encode())


def _summary_text(report: dict, elapsed: float) -> str:
    lines = [
        f"gtlab {report['artifact_version']} - command "
        f"{report['config']['command']}",
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
    t0 = time.perf_counter()
    error = None
    try:
        job = validate_config(cfg)
        reports, extras = HANDLERS[job["command"]](job)
        entries = [r.as_dict() for r in reports]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GTLabError, ArithmeticError) as exc:  # an overflow fails the job too
        entries, extras = [], {}
        error = f"{type(exc).__name__}: {exc}"
    verdict = "pass" if entries and all(e["pass"] for e in entries) else "fail"  # an error has none
    report = {
        "artifact_version": __version__,
        "config": cfg,
        "reports": entries,
        "extras": extras,
        "error": error,
        "verdict": verdict,
    }
    elapsed = time.perf_counter() - t0
    out = out_path or job["out"]
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
