"""The benchmark's span tracer (``bench/tracer.py``) wraps gtlab's names from
outside the package, where it looks them up: a function in its module, a
method on its class, ``GTStructure.sample``, ``SplitMix64.complex_in_box``
and the builders of every ``catalog.CATALOG`` entry.  A name it cannot find
is a per-layer metric that goes missing and a traced round that reports
itself incorrect, so every name in its own tables must resolve here.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    importlib.import_module("gtlab.cli")  # as Tracer.install: loads every gtlab module
    return module


def test_every_traced_function_resolves_in_its_module(tracer):
    sites = [site for sites in tracer.FUNCTIONS.values() for site in sites]
    assert any(module.startswith("gtlab.") for module, _ in sites)
    missing = [f"{module}.{attr}" for module, attr in sites
               if getattr(importlib.import_module(module), attr, None) is None]
    assert not missing, missing


def test_every_traced_method_is_defined_on_its_class(tracer):
    # wrap_method patches a class's own __dict__ entry, so an inherited or
    # absent method leaves the span, and its metrics, unrecorded
    missing = []
    for module, cls_name, attr in tracer.METHODS.values():
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None or attr not in cls.__dict__:
            missing.append(f"{module}.{cls_name}.{attr}")
    assert not missing, missing


def test_the_sampler_rng_and_catalog_fields_the_tracer_patches_resolve(tracer):
    core, kernel, catalog = (sys.modules[f"gtlab.{name}"] for name in ("core", "kernel", "catalog"))
    assert "sample" in core.GTStructure.__dict__
    assert "complex_in_box" in kernel.SplitMix64.__dict__
    assert catalog.CATALOG
    for key, entry in catalog.CATALOG.items():
        fields = {f.name for f in dataclasses.fields(entry)}
        assert {"build", "build_enhanced", "potentials"} <= fields, key
        assert callable(entry.build), key
