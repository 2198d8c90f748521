"""Span tracer that wraps gtlab's public functions from outside the package.

A span is recorded at each wrapped call: its name, start, end, parent span
and job id.  Spans stay in memory (compact arrays) until the run ends;
self time is computed from them afterwards.  Nothing under `src/` is
edited: names are wrapped where they are looked up, which for a function
means every gtlab module that binds it (``catalog`` binds ``rho_partial``
through ``from .kernel import``), for a method every class that defines
it, and for catalog evaluators the ``fn`` / ``partial_fn`` attributes of
the instances that the catalog builders return.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> the (module, attribute) of each function it covers; every
# gtlab module that binds the same function object is patched as well
FUNCTIONS = {
    "kernel.rho_partial": [("gtlab.kernel", "rho_partial")],
    "kernel.theta_partial": [("gtlab.kernel", "theta_partial")],
    "kernel.laurent_coeff": [("gtlab.kernel", "laurent_coeff")],
    "core.verify_pole": [("gtlab.core", "verify_pole")],
    "core.verify_bracket": [("gtlab.core", "verify_bracket")],
    "core.verify_cocycle": [("gtlab.core", "verify_cocycle")],
    "core.verify_lambda": [("gtlab.core", "verify_lambda")],
    "core.verify_potential": [("gtlab.core", "verify_potential")],
    "core.transform": [("gtlab.core", "collide_points_closed"),
                       ("gtlab.core", "pushforward")],
    "gtsys.build_system": [("gtlab.gtsys", "build_system")],
    "gtsys.compatibility_residual": [("gtlab.gtsys", "compatibility_residual")],
    "gtsys.integrate_reduction": [("gtlab.gtsys", "integrate_reduction")],
    "hierarchy.dimension_D": [("gtlab.hierarchy", "dimension_D")],
    "hierarchy.hydro_coefficients": [("gtlab.hierarchy", "hydro_coefficients")],
    "hierarchy.reconstruct": [("gtlab.hierarchy", "reconstruct_f"),
                              ("gtlab.hierarchy", "reconstruct_lambda")],
    "hyperell.periods": [("gtlab.hyperell", "periods")],
    "hyperell.interval_integrals": [("gtlab.hyperell", "interval_integrals")],
    "hyperell.rauch_check": [("gtlab.hyperell", "rauch_check")],
    "hyperell.leggauss": [("numpy.polynomial.legendre", "leggauss")],
    "cli.validate_config": [("gtlab.cli", "validate_config")],
    "cli.emit_report": [("gtlab.cli", "emit_report")],
}

# span name -> (module, class, method); overrides in subclasses are wrapped too
METHODS = {
    "kernel.jet_partial": ("gtlab.kernel", "JetEvaluator", "partial"),
    "kernel.eval_circle": ("gtlab.kernel", "JetEvaluator", "eval_circle"),
    "hierarchy.h_jet": ("gtlab.hierarchy", "PotentialFamily", "h_jet"),
}

BENCH = Path(__file__).resolve().parent


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.job = array("h")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """fn wrapped so that each call records one span called ``name``."""
        nid = self._name_id(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_function(self, name: str, module: str, attr: str) -> None:
        original = getattr(sys.modules[module], attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self.span(name, original)
        sites = [m for key, m in list(sys.modules.items())
                 if key in (module, "gtlab") or key.startswith("gtlab.")]
        for mod in sites:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, key, wrapper)

    def wrap_method(self, name: str, module: str, cls_name: str, attr: str) -> None:
        base = getattr(sys.modules[module], cls_name, None)
        if base is None:
            self.missing.append(f"{module}.{cls_name}")
            return
        todo, seen = [base], []
        while todo:
            cls = todo.pop()
            seen.append(cls)
            todo.extend(c for c in cls.__subclasses__() if c not in seen)
        for cls in seen:
            if attr in cls.__dict__:
                self._patch(cls, attr, self.span(name, cls.__dict__[attr]))

    def _wrap_sample(self, gtstructure) -> None:
        original = gtstructure.__dict__["sample"]
        counts = self.counts

        def sample(s, *args, **kwargs):
            draws = counts["rng_draws"]
            out = original(s, *args, **kwargs)
            counts["sample.returned"] += len(out)
            counts["sample.draws"] += counts["rng_draws"] - draws
            return out

        self._patch(gtstructure, "sample", self.span("core.sample", sample))

    def _wrap_rng(self, splitmix) -> None:
        original = splitmix.__dict__["complex_in_box"]
        counts = self.counts

        def complex_in_box(rng, box):
            counts["rng_draws"] += 1
            return original(rng, box)

        self._patch(splitmix, "complex_in_box", complex_in_box)

    def _instrument(self, structure: str, obj) -> None:
        """Wrap fn / partial_fn of every evaluator a catalog builder returned."""
        if isinstance(obj, (list, tuple)):
            for item in obj:
                self._instrument(structure, item)
            return
        if hasattr(obj, "fn") and hasattr(obj, "partial_fn"):
            for attr in ("fn", "partial_fn"):
                original = getattr(obj, attr)
                if original is not None:
                    self._patch(obj, attr, self.span(f"catalog.{structure}.{attr}", original))
            return
        for attr in ("g", "f", "base", "lam", "h"):
            if hasattr(obj, attr):
                self._instrument(structure, getattr(obj, attr))

    def _wrap_catalog(self, catalog) -> None:
        def builder(structure, fn):
            spanned = self.span("catalog.build", fn)

            def build(*args, **kwargs):
                obj = spanned(*args, **kwargs)
                self._instrument(structure, obj)
                return obj

            return build

        table = catalog.CATALOG
        for key, entry in list(table.items()):
            for attr in ("fn", "partial_fn"):
                self._name_id(f"catalog.{key}.{attr}")
            changes = {field: builder(key, getattr(entry, field))
                       for field in ("build", "build_enhanced", "potentials")
                       if getattr(entry, field) is not None}
            self._patches.append((table, key, entry))
            table[key] = dataclasses.replace(entry, **changes)

    def install(self) -> None:
        import gtlab.cli  # noqa: F401  (loads every gtlab module)
        import numpy.polynomial.legendre  # noqa: F401

        for name, sites in FUNCTIONS.items():
            for module, attr in sites:
                self.wrap_function(name, module, attr)
        for name, (module, cls, attr) in METHODS.items():
            self.wrap_method(name, module, cls, attr)
        self._wrap_sample(sys.modules["gtlab.core"].GTStructure)
        self._wrap_rng(sys.modules["gtlab.kernel"].SplitMix64)
        self._wrap_catalog(sys.modules["gtlab.catalog"])

    def uninstall(self) -> bool:
        """Restore every original; True when none of the wrappers is left."""
        clean = True
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if isinstance(owner, dict):
                clean &= owner[attr] is original
            else:
                clean &= owner.__dict__[attr] is original
        self._patches.clear()
        return clean

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def _self_times(self):
        """(name id, duration, self time) of every span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        return a["name"], dur, dur - child

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name.

        total_s sums every span of a name, so it double counts names that
        nest in themselves (jet_partial recursion); those report self_s.
        """
        name, dur, own = self._self_times()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {
            label: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(selfs[i])}
            for i, label in enumerate(self.names) if calls[i]
        }

    def self_time_bounds(self) -> tuple[float, float]:
        """(smallest self time of any span, sum of all self times)."""
        _, _, own = self._self_times()
        return (float(own.min()) if len(own) else 0.0), float(own.sum())

    def layer_metrics(self, metrics, report_bytes: int, overhead: float) -> dict[str, float]:
        """The value of each named metric; a name that matches no span is
        added to ``missing``, since it would otherwise read 0."""
        stats = self.per_name()
        out = {}
        for metric in metrics:
            head, _, kind = metric.rpartition(".")
            if metric == "kernel.rng_draws":
                out[metric] = self.counts["rng_draws"]
            elif metric == "core.sample.accept_ratio":
                draws = self.counts["sample.draws"]
                out[metric] = self.counts["sample.returned"] / draws if draws else 0.0
            elif metric == "cli.report_bytes":
                out[metric] = report_bytes
            elif metric == "trace.overhead_frac":
                out[metric] = overhead
            elif head in self._ids and kind in ("calls", "self_s", "total_s"):
                out[metric] = stats.get(head, {}).get(kind, 0)
            else:
                self.missing.append(f"metric {metric}")
        return out


def zero_call_violations(workload: str, layer: dict, units: dict) -> list[str]:
    """Call counts that record.json's predictions say must be 0 here."""
    record = json.loads((BENCH / "record.json").read_text())
    patterns = [pat for p in record["predictions"]
                for pat in p.get("zero_calls", {}).get(workload, ())]
    return [f"{metric} = {value} on {workload}, predicted 0"
            for metric, value in layer.items()
            if units[metric] == "count" and value
            and any(fnmatch.fnmatchcase(metric, pat) for pat in patterns)]
