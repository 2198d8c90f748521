"""CLI: config schema, exit codes, report format, byte determinism."""

from __future__ import annotations

import dataclasses
import errno
import importlib.util
import json
import math
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtlab import catalog, cli, gtsys, hierarchy, hyperell
from gtlab.cli import emit_report, main, run, validate_config
from gtlab.core import CoordinateChange, pushforward, verify_potential
from gtlab.errors import ConfigError

BASE = {"command": "verify", "structure": "benney", "n": 1, "seed": 5,
        "samples": 10, "tol": 1e-8}


def _run(tmp_path, cfg, name="job"):
    cfg_path = tmp_path / f"{name}.json"
    out_path = tmp_path / f"{name}-report.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["--config", str(cfg_path), "--out", str(out_path)])
    return code, out_path


def _assert_own_verdicts(body):
    """Each entry passes iff its max residual is under its tolerance (a NaN
    residual, written as a string, never is), and the job passes iff it
    has entries and every one passes."""
    for entry in body["reports"]:
        assert entry["pass"] == (float(entry["max_residual"]) < entry["tolerance"]), entry
    passed = bool(body["reports"]) and all(entry["pass"] for entry in body["reports"])
    assert body["verdict"] == ("pass" if passed else "fail")


def _run_fuzz(tmp_path, cfg):
    """``run`` on a fresh report path: never a traceback, and a report it
    writes carries its own verdicts."""
    out = tmp_path / "fuzz.json"
    out.unlink(missing_ok=True)
    code = run(cfg, str(out))
    assert code in (0, 1, 2, 3)
    if out.exists():
        _assert_own_verdicts(json.loads(out.read_text()))


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_valid_config_passes_validation():
    assert validate_config(dict(BASE)) == {**BASE, "out": "gtlab-report.json"}


@pytest.mark.parametrize("patch", [
    {"command": "frobnicate"},
    {"bogus_key": 1},
    {"seed": None},
    {"seed": -3},
    {"samples": -10},
    {"tol": 0},
    {"structure": "genus9"},
])
def test_schema_violations_are_rejected(patch):
    cfg = dict(BASE)
    cfg.update(patch)
    if patch.get("seed", 0) is None:
        cfg.pop("seed")
    with pytest.raises(ConfigError):
        validate_config(cfg)


@pytest.mark.parametrize("cfg,key", [
    ({"command": "hydro", "structure": "benney", "n": 2, "seed": 1,
      "z_count": 1000000000}, "z_count"),
    ({"command": "verify", "structure": "benney", "n": 10000000, "seed": 1}, "n"),
])
def test_cost_setting_keys_beyond_their_bound_exit_2(tmp_path, capsys, cfg, key):
    code, out = _run(tmp_path, cfg)
    assert code == 2 and not out.exists()
    assert f"config error: {key} must be at most" in capsys.readouterr().err


def test_benchmark_configs_stay_within_the_cost_bounds():
    # each benchmark job resolves, as given, with every key its command takes
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.CONFIGS:
        for seed in range(101, 111):
            for cfg in workloads.generate(name, seed, workloads.REF_SECONDS):
                job = validate_config(dict(cfg))
                assert set(job) == {"command", *cli.TAKES[cfg["command"]]}
                assert {key: job[key] for key in cfg} == cfg


def _cheap(command):
    """A job of ``command`` that runs in milliseconds: benney, and each
    cost-setting key at 3 (z_count at 20: hydro needs 3m + 5 points)."""
    cfg = {"command": command, "seed": 3}
    for key, row in cli.TAKES[command].items():
        if row.bound:
            cfg[key] = 20 if key == "z_count" else 3
    if "structure" in cli.TAKES[command]:
        cfg["structure"] = "benney"
    return cfg


class _Reads(dict):
    """A resolved config that records each key read from it."""

    def __init__(self, job):
        super().__init__(job)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_a_job_reads_exactly_the_keys_its_command_takes(tmp_path, monkeypatch, command):
    # the resolved config holds only the keys the table declares for its
    # command, so a handler reaching for another raises KeyError; and each
    # declared key is read
    jobs = []
    resolve = cli.validate_config
    monkeypatch.setattr(cli, "validate_config", lambda cfg: jobs.append(_Reads(resolve(cfg)))
                        or jobs[-1])
    assert run({**_cheap(command), "out": str(tmp_path / "r.json")}, None) in (0, 1)
    assert jobs[0].read == {"command", *cli.TAKES[command]}


@pytest.mark.parametrize("command,key", [(command, key) for command in sorted(cli.HANDLERS)
                                         for key in cli.KEYS if key not in cli.TAKES[command]])
def test_a_key_its_command_does_not_read_exits_2(tmp_path, capsys, command, key):
    # report reads no structure, rauch no structure, n or samples, hydro and
    # gtsys no samples; the check comes before any value is read
    assert run({**_cheap(command), key: 1}, str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == f"config error: unknown config keys for {command}: ['{key}']\n"
    assert not (tmp_path / "r.json").exists()


def test_a_default_per_structure_has_one_for_each_catalog_structure():
    per_structure = [default for row in cli.KEYS.values() for default in row.defaults.values()
                     if isinstance(default, dict)]
    assert per_structure and all(set(d) == set(catalog.CATALOG) for d in per_structure)


def _readme_row(key, row):
    """The README's row for ``key``: its kind, each default with the commands
    that take it, and its bound."""
    shown = {}
    for command, default in row.defaults.items():
        if default is cli.REQUIRED:
            text = "required"
        elif isinstance(default, dict):  # one per structure
            text = ", ".join(f"{name} `{json.dumps(val)}`" for name, val in default.items())
        else:
            text = f"`{json.dumps(default)}`"
        shown.setdefault(text, []).append(command)
    defaults = "; ".join(
        f"{'every command' if len(commands) == len(cli.HANDLERS) else ', '.join(commands)}: {text}"
        for text, commands in shown.items())
    bound = f"{row.bound[0]} ({row.bound[1]})" if row.bound else ""
    return f"| `{key}` | {row.kind.__doc__} | {defaults} | {bound} |"


def test_the_readme_key_table_is_the_config_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows == [_readme_row(key, row) for key, row in cli.KEYS.items()]


def test_missing_seed_is_rejected():
    cfg = dict(BASE)
    del cfg["seed"]
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_schema_violation_exits_2_without_report(tmp_path):
    code, out = _run(tmp_path, {**BASE, "tol": -1.0})
    assert code == 2
    assert not out.exists()


def test_coincident_branch_points_exit_2(tmp_path, capsys):
    # the schema checks only the shape of the moduli; hyperell's own check
    # refuses their order in the handler, naming the values
    code, out = _run(tmp_path, {"command": "rauch", "seed": 1,
                                "moduli": [2.0, 2.0, 3.0]})
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "config error: branch points must satisfy 1 < a < b < c, got (2.0, 2.0, 3.0)\n")


@pytest.mark.parametrize("cfg", [
    {"command": "reconstruct", "pair": [0, 99]},
    {"command": "reconstruct", "index": 99},
    {"command": "hydro", "triple": "abc"},
    {"command": "hydro", "triple": [0, 1, "x"]},
    {"command": "collide", "groups": 5},
    {"command": "collide", "structure": "genus1", "groups": [[0, 2]]},
    {"command": "collide", "groups": [[], [0]]},
    {"command": "verify", "n": 2.7},
    {"command": "verify", "samples": 1.5},
    {"command": "verify", "seed": True},
    {"command": "pushforward", "scale": "big"},
    {"command": "rauch", "branch": "a"},
])
def test_malformed_keys_exit_2(tmp_path, cfg):
    base = {"structure": "genus0", "n": 2, "seed": 5}
    code, out = _run(tmp_path, {key: base[key] for key in base if key in cli.TAKES[cfg["command"]]}
                     | cfg)
    assert code == 2
    assert not out.exists()


def test_oversized_node_count_exits_2(tmp_path):
    code, out = _run(tmp_path, {"command": "rauch", "seed": 1,
                                "nodes": 10_000_000})
    assert code == 2
    assert not out.exists()


def test_malformed_json_exits_2(tmp_path):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert main(["--config", str(cfg_path)]) == 2


def test_unreadable_config_exits_3(tmp_path):
    assert main(["--config", str(tmp_path / "missing.json")]) == 3


def test_unwritable_output_exits_3(tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(BASE))
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 3


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_passing_run_exits_0_and_writes_report(tmp_path):
    code, out = _run(tmp_path, BASE)
    assert code == 0
    body = json.loads(out.read_text())
    assert body["verdict"] == "pass"
    assert body["config"]["command"] == "verify"
    assert all(entry["pass"] for entry in body["reports"])
    _assert_own_verdicts(body)
    # timing lives only in the adjacent text summary
    assert "elapsed" not in json.dumps(body)
    summary = out.with_suffix(".txt").read_text()
    assert "elapsed" in summary and "PASS" in summary


@pytest.mark.parametrize("cfg", [
    {"command": "hydro", "structure": "benney", "n": 2},
    {"command": "reconstruct", "structure": "benney", "n": 2},
    {"command": "report", "samples": 2},
])
def test_hierarchy_and_report_commands_pass(tmp_path, cfg):
    code, out = _run(tmp_path, {**cfg, "seed": 7})
    body = json.loads(out.read_text())
    assert code == 0 and body["verdict"] == "pass"
    assert body["reports"] and all(entry["pass"] for entry in body["reports"])
    _assert_own_verdicts(body)


def test_report_holds_every_structure_to_the_config_tol(tmp_path):
    code, out = _run(tmp_path, {"command": "report", "samples": 2, "tol": 1e-3, "seed": 7})
    body = json.loads(out.read_text())
    assert code == 0 and body["config"]["tol"] == 1e-3
    assert {entry["params"]["structure"] for entry in body["reports"]} >= {"genus0", "genus2"}
    assert all(entry["tolerance"] == 1e-3 for entry in body["reports"])


def test_report_without_tol_holds_genus2_to_1e_6(tmp_path):
    _, out = _run(tmp_path, {"command": "report", "samples": 2, "seed": 7})
    for entry in json.loads(out.read_text())["reports"]:
        assert entry["tolerance"] == (1e-6 if entry["params"]["structure"] == "genus2" else 1e-8)


# ---------------------------------------------------------------------------
# objects built once per process: a structure, its enhancement, potentials,
# pushed and collided transforms and GT system, shared by every job of a config
# ---------------------------------------------------------------------------


_SHARED = [{**_cheap(command), **extra} for extra in ({}, {"structure": "genus0", "n": 2})
           for command in cli._STRUCTURED] + [{**_cheap("report"), "samples": 2}]


def _codes_and_reports(tmp_path, jobs):
    """Each numbered job's exit code and report bytes, the jobs run in the order given."""
    got = {}
    for k, cfg in jobs:
        out = tmp_path / f"{k}.json"
        got[k] = run(dict(cfg), str(out)), out.read_bytes()
    return got


def test_no_report_depends_on_the_jobs_run_before_it(tmp_path):
    # every structured command and report, on two structures: the same exit
    # codes and report bytes built afresh, reusing what the jobs before them
    # built in either order, and built afresh again
    jobs = list(enumerate(_SHARED))
    cli._built.cache_clear()
    first = _codes_and_reports(tmp_path, jobs)
    assert _codes_and_reports(tmp_path, jobs[::-1]) == first
    assert cli._built.cache_info().hits >= len(jobs)
    cli._built.cache_clear()
    assert _codes_and_reports(tmp_path, jobs) == first
    assert {code for code, _ in first.values()} <= {0, 1}


def test_two_jobs_of_one_config_call_each_builder_once(tmp_path, monkeypatch):
    # the cache key holds the builder and its arguments: a config run again
    # calls none, while another scale or groups builds its transform anew
    calls = Counter()

    def counted(name, builder):
        def build(*args):
            calls[name] += 1
            return builder(*args)
        return build

    entry = catalog.CATALOG["benney"]
    monkeypatch.setitem(catalog.CATALOG, "benney", dataclasses.replace(
        entry, build=counted("build", entry.build),
        build_enhanced=counted("build_enhanced", entry.build_enhanced)))
    for module, name in [(catalog, "build_potentials"), (cli, "collide_points_closed"),
                         (cli, "quadratic_mu"), (cli, "pushforward"), (gtsys, "build_system")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    out = str(tmp_path / "r.json")
    for command in ("verify", "potentials", "hydro", "reconstruct", "collide", "pushforward",
                    "gtsys"):
        assert [run(_cheap(command), out) for _ in range(2)] in ([0, 0], [1, 1]), command
    assert calls == dict.fromkeys(["build", "build_enhanced", "build_potentials",
                                   "collide_points_closed", "quadratic_mu", "pushforward",
                                   "build_system"], 1)
    assert run({**_cheap("pushforward"), "scale": 0.07}, out) == 0
    assert run({**_cheap("collide"), "groups": [[0, 1, 2]]}, out) == 0
    assert calls["quadratic_mu"] == calls["pushforward"] == calls["collide_points_closed"] == 2
    assert calls["build"] == calls["build_system"] == 1


def test_library_builders_return_fresh_objects():
    # the cache is the CLI's: a library call builds anew every time
    assert catalog.build_structure("benney", 2) is not catalog.build_structure("benney", 2)
    s = catalog.build_structure("benney", 2)
    change = CoordinateChange(cli.quadratic_mu(s.m, 0.05))
    assert pushforward(s, change) is not pushforward(s, change)


# ---------------------------------------------------------------------------
# the verdicts at the edges of the restated checks: each entry's own
# residual against its own tolerance decides it
# ---------------------------------------------------------------------------

_GTSYS = {"command": "gtsys", "structure": "benney", "n": 1, "states": 1, "steps": 2,
          "seed": 3}


def _entries(tmp_path, cfg):
    code, out = _run(tmp_path, cfg)
    body = json.loads(out.read_text())
    _assert_own_verdicts(body)
    return code, {entry["identity"]: entry for entry in body["reports"]}


def _fake_march(monkeypatch, ratio, blown=(None, None)):
    def grid(at):
        return gtsys.ReductionResult(M=2, steps=2, h=0.02, grid_v1=np.zeros((3, 3)),
                                     residual=1.0, blow_up=at is not None, blow_up_at=at)

    monkeypatch.setattr(gtsys, "convergence_ratio",
                        lambda *args, **kwargs: (ratio, *map(grid, blown)))


@pytest.mark.parametrize("ratio,passed", [
    (3.5, False), (4.5, False), (3.5000001, True), (4.0, True), (4.4999999, True),
    (2.2, False), (float("nan"), False), (float("inf"), False),
])
def test_reduction_order_passes_strictly_inside_3_5_to_4_5(tmp_path, monkeypatch, ratio,
                                                           passed):
    _fake_march(monkeypatch, ratio)
    code, entries = _entries(tmp_path, _GTSYS)
    order = entries["reduction_order"]
    assert order["pass"] is passed and order["tolerance"] == 0.5
    assert order["max_residual"] == (abs(ratio - 4.0) if math.isfinite(ratio) else repr(ratio))
    assert order["params"]["ratio"] == (ratio if math.isfinite(ratio) else repr(ratio))
    assert entries["reduction_blow_up"]["pass"]
    assert code == (0 if passed and entries["gt_compatibility"]["pass"] else 1)


@pytest.mark.parametrize("blown", [((1, 0), None), (None, (2, 3)), ((0, 1), (1, 1))])
def test_a_blown_grid_fails_with_the_ratio_in_band(tmp_path, monkeypatch, blown):
    _fake_march(monkeypatch, 4.0, blown)
    code, entries = _entries(tmp_path, _GTSYS)
    assert code == 1 and entries["reduction_order"]["pass"]
    blow_up = entries["reduction_blow_up"]
    assert not blow_up["pass"]
    assert blow_up["max_residual"] == sum(at is not None for at in blown)
    assert blow_up["params"] == {
        "coarse_blow_up_at": blown[0] and list(blown[0]),
        "fine_blow_up_at": blown[1] and list(blown[1]),
    }


@pytest.mark.parametrize("dimension,passed", [
    (lambda m: m - 1, False), (lambda m: m, True), (lambda m: 2 * m - 1, True),
    (lambda m: 2 * m, False),
], ids=["m-1", "m", "2m-1", "2m"])
def test_hydro_dimension_passes_from_m_to_2m_minus_1(tmp_path, monkeypatch, dimension,
                                                     passed):
    real = hierarchy.hydro_coefficients
    monkeypatch.setattr(hierarchy, "hydro_coefficients", lambda fam, *args, **kwargs:
                        dataclasses.replace(real(fam, *args, **kwargs), D=dimension(fam.m)))
    code, entries = _entries(tmp_path, {"command": "hydro", "structure": "benney", "n": 2,
                                        "seed": 7})
    dim = entries["hydro_dimension"]
    assert dim["params"]["m"] == 2 and dim["params"]["D"] == dimension(2)
    assert dim["pass"] is passed and dim["max_residual"] == (0 if passed else 1)
    assert code == (0 if passed else 1)


def test_a_hydro_job_builds_three_tensors_and_reports_one_rank(tmp_path, monkeypatch):
    # the fit sample, its doubling and the held-out points: the fit tensor
    # and its rank serve both the dimension and the expansion
    calls = []
    real = hierarchy.compatibility_tensor

    def counted(fam, i, j, k, v, zs):
        calls.append(len(zs))
        return real(fam, i, j, k, v, zs)

    monkeypatch.setattr(hierarchy, "compatibility_tensor", counted)
    code, out = _run(tmp_path, {"command": "hydro", "structure": "benney", "n": 2, "seed": 7})
    body = json.loads(out.read_text())
    assert code == 0 and calls == [40, 80, 40]
    entries = {entry["identity"]: entry for entry in body["reports"]}
    assert (body["extras"]["D"] == entries["hydro_dimension"]["params"]["D"]
            == entries["hydro_expansion"]["params"]["D"] == 2)


@pytest.mark.parametrize("eigenvalues,passed", [
    ((0.0, 1.0), False), ((1.0, float("nan")), False), ((float("nan"), 1.0), False),
    ((-1.0, -0.5), False), ((5e-324, 1.0), True),
])
def test_period_positivity_counts_eigenvalues_not_above_0(tmp_path, monkeypatch,
                                                         eigenvalues, passed):
    real = hyperell.rauch

    def fake(*args, **kwargs):
        pd, checks = real(*args, **kwargs)
        return dataclasses.replace(pd, im_eigenvalues=eigenvalues), checks

    monkeypatch.setattr(hyperell, "rauch", fake)
    code, entries = _entries(tmp_path, {"command": "rauch", "seed": 1, "moduli": [1.6, 2.8, 4.3]})
    positivity = entries["period_positivity"]
    assert positivity["pass"] is passed and positivity["tolerance"] == 0.5
    assert positivity["max_residual"] == sum(not ev > 0 for ev in eigenvalues)
    lowest = positivity["params"]["min_eigenvalue"]
    assert lowest == ("nan" if any(map(math.isnan, eigenvalues)) else min(eigenvalues))
    assert code == (0 if passed else 1)


def test_report_is_byte_deterministic(tmp_path):
    _, out1 = _run(tmp_path, BASE, "first")
    _, out2 = _run(tmp_path, BASE, "second")
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_changes_report(tmp_path):
    _, out1 = _run(tmp_path, BASE, "first")
    _, out2 = _run(tmp_path, {**BASE, "seed": 6}, "second")
    assert out1.read_bytes() != out2.read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "job.json"
    out = tmp_path / "rep.json"
    cfg_path.write_text(json.dumps(BASE))
    main(["--config", str(cfg_path), "--out", str(out), "--seed", "99"])
    assert json.loads(out.read_text())["config"]["seed"] == 99


def test_complex_values_serialize_as_pairs(tmp_path):
    code, out = _run(tmp_path, {"command": "rauch", "seed": 1,
                                "moduli": [1.6, 2.8, 4.3]})
    assert code == 0
    body = json.loads(out.read_text())
    entry = body["extras"]["period_matrix"][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    assert all(isinstance(x, float) for x in entry)


def test_non_finite_values_serialize_as_strings(tmp_path):
    nan = float("nan")
    body = {"a": np.float64(nan), "b": complex(nan, 0.0), "c": float("inf"),
            "d": np.complex64(complex(1.0, -np.inf))}
    out = tmp_path / "nan.json"
    emit_report(body, str(out), "")

    def reject(token):
        raise ValueError(f"bare {token} in report")

    assert json.loads(out.read_text(), parse_constant=reject) == {
        "a": "nan", "b": ["nan", 0.0], "c": "inf", "d": [1.0, "-inf"]}


def _reference_form(obj):
    """The report's JSON form built apart, for ``json.dumps``: complex -> [re, im],
    numpy floats -> python's, non-finite floats -> their repr strings."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [_reference_form(float(obj.real)), _reference_form(float(obj.imag))]
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, dict):
        return {str(key): _reference_form(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_form(x) for x in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def test_a_report_is_written_as_json_dumps_writes_its_form(tmp_path):
    # one walk writes every leaf kind a report holds, byte for byte as
    # json.dumps writes the report's form
    inf, nan = float("inf"), float("nan")
    body = {
        "complex": [1.5 - 2j, complex(inf, nan), complex(-inf, 0.0), np.complex128(0.1 + 1e-300j),
                    np.complex64(complex(nan, -inf))],
        "floats": [0.1, -0.0, 1e300, 5e-324, np.float64(2.5e-17), np.float32(0.1), inf, -inf,
                   nan, np.float64(-inf), np.float64(nan)],
        "other": [0, -7, 2**70, True, False, None, "", "plain", "quote \" \\ \n\t\x01",
                  "τ = 0.3+1.1i, ∂ρ", "\u2028 \U0001f600"],
        "empty": [[], {}, (), [[]], {"x": {}}],
        "nested": {"a": [{"b": (1, [2.0, {"c": []}])}], "": {"d": [[1j]]}},
        "keys": {1: "int key", 2.5: "float key", None: "none key", "ü": "text"},
    }
    out = tmp_path / "leaves.json"
    emit_report(body, str(out), "")
    want = json.dumps(_reference_form(body), indent=2, ensure_ascii=False, allow_nan=False)
    assert out.read_text(encoding="utf-8") == want + "\n"


def test_subclasses_of_str_int_and_float_are_written_as_their_base(tmp_path):
    # a container writes exact str, int and float children in place; a
    # subclass's goes through a call of its own, as json.dumps writes it
    class Text(str):
        pass

    class Count(int):
        pass

    class Real(float):
        pass

    body = {"leaves": [Text("ü"), Count(7), Real(0.5), Real("inf")], Text("key"): Count(-1)}
    out = tmp_path / "sub.json"
    emit_report(body, str(out), "")
    want = json.dumps(_reference_form(body), indent=2, ensure_ascii=False, allow_nan=False)
    assert out.read_text(encoding="utf-8") == want + "\n"


@pytest.mark.parametrize("leaf", [np.int64(3), np.array([1.0]), np.bool_(True), object()])
def test_a_leaf_json_cannot_write_raises_type_error(tmp_path, leaf):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        emit_report({"x": [leaf]}, str(tmp_path / "bad.json"), "")
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json.dumps(_reference_form({"x": [leaf]}))


RAUCH = {"command": "rauch", "seed": 3, "nodes": 60, "moduli": [1.6, 2.8, 4.3]}


def _stopped_clock_run(monkeypatch, out):
    """``run`` of a rauch job with cli's clock stopped, so that its .txt is
    byte-deterministic too: (exit code, JSON bytes, .txt bytes)."""
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    code = run(dict(RAUCH), str(out))
    return code, out.read_bytes(), out.with_suffix(".txt").read_bytes()


def test_short_writes_cannot_truncate_a_report(tmp_path, monkeypatch):
    # os.write may write fewer bytes than it is handed; the report is
    # written on until every byte is out, byte-identical to whole writes
    whole = _stopped_clock_run(monkeypatch, tmp_path / "whole.json")
    write, asked = os.write, []

    def short(fd, data):
        asked.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short)
    assert _stopped_clock_run(monkeypatch, tmp_path / "short.json") == whole
    assert len(asked) == sum(-(-len(body) // 7) for body in whole[1:])


def test_a_failed_write_exits_3_and_keeps_the_previous_report(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"
    assert run(dict(RAUCH), str(out)) == 0
    previous = out.read_bytes()

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", full)
    capsys.readouterr()
    assert run({**RAUCH, "seed": 4}, str(out)) == 3
    assert capsys.readouterr().err.startswith("i/o error writing report: ")
    assert out.read_bytes() == previous
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r.json", "r.txt"]  # no r.json.tmp


def test_a_failed_replace_exits_3_and_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"

    def refused(src, dst):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", refused)
    assert run(dict(RAUCH), str(out)) == 3
    assert capsys.readouterr().err.startswith("i/o error writing report: ")
    assert list(tmp_path.iterdir()) == []


def test_an_out_utf_8_cannot_encode_exits_2(tmp_path, capsys):
    # json.load reads "\udc80" as a lone surrogate, which no UTF-8 report can
    # echo: the config is refused before the job runs
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({**RAUCH, "out": str(tmp_path / "r\udc80.json")}))
    assert "\\udc80" in cfg_path.read_text()
    assert main(["--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: out must be a path string\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_a_report_with_non_ascii_text_is_utf_8(tmp_path):
    # as json.dumps(ensure_ascii=False) writes it, encoded as UTF-8: the
    # config's path echoed into the report, and text of any plane
    out = tmp_path / "ρ-∂ report.json"
    assert run({**RAUCH, "out": str(out)}, None) == 0
    body = json.loads(out.read_bytes().decode("utf-8"))
    assert body["config"]["out"] == str(out)
    assert out.with_suffix(".txt").read_bytes().decode("utf-8").startswith("gtlab ")
    text = {"τ": ["ü 日本", "\u2028", "\U0001f600"]}
    emit_report(text, str(out), "summary ∂ρ\n")
    assert out.read_bytes() == (json.dumps(text, indent=2, ensure_ascii=False)
                                + "\n").encode("utf-8")
    assert out.with_suffix(".txt").read_bytes() == "summary ∂ρ\n".encode("utf-8")


def test_numeric_failure_exits_1_with_report(tmp_path):
    # a tolerance far below quadrature precision must fail numerically but
    # still produce a full report
    code, out = _run(tmp_path, {**BASE, "tol": 1e-300})
    assert code == 1
    body = json.loads(out.read_text())
    assert body["verdict"] == "fail"
    assert out.with_suffix(".txt").read_text().count("FAIL") >= 1


def test_list_structures_flag():
    assert main(["--list-structures"]) == 0


def test_the_module_runs_as_a_script():
    # python -m gtlab.cli: the __main__ guard hands main's exit code to sys.exit
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "gtlab.cli", "--list-structures"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert [line.split(":")[0] for line in done.stdout.splitlines()] == [
        "benney", "genus0", "genus1", "genus2"]


def test_a_hydro_job_runs_without_scipy(tmp_path):
    # a fresh process in which every scipy import fails writes the report of
    # the in-process run, byte for byte, and loads no scipy module
    cfg = {"command": "hydro", "structure": "benney", "n": 2, "seed": 7}
    assert run(dict(cfg), str(tmp_path / "here.json")) == 0
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from gtlab import cli\n"
        f"print(cli.run({cfg!r}, {str(tmp_path / 'there.json')!r}))\n"
        "print(sorted(m for m, mod in sys.modules.items()\n"
        "             if m.split('.')[0] == 'scipy' and mod is not None))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["0", "[]"]
    assert (tmp_path / "there.json").read_bytes() == (tmp_path / "here.json").read_bytes()


def test_main_without_a_config_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "--config is required (or use --list-structures)" in capsys.readouterr().err


def test_a_seed_over_a_config_that_is_no_object_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2]")
    assert main(["--config", str(cfg_path), "--seed", "3"]) == 2
    assert capsys.readouterr().err == "config must be a JSON object\n"


@pytest.mark.parametrize("cfg,reason", [
    ([BASE], "config must be a JSON object"),
    ({**BASE, "out": 5}, "out must be a path string"),
    ({"command": "rauch", "seed": 1, "moduli": [1.5, 2.9]}, "moduli must be three real numbers"),
    ({"command": "rauch", "seed": 1, "moduli": [1.5, 2.9, "4.1"]},
     "moduli must be three real numbers"),
    ({"command": "collide", "structure": "genus0", "n": 3, "seed": 1, "groups": [[0, 1], [1, 2]]},
     "collision groups must be disjoint"),
])
def test_config_guards_name_their_reason(tmp_path, capsys, cfg, reason):
    with pytest.raises(ConfigError, match=f"^{reason}$"):
        validate_config(cfg)
    assert run(cfg, str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == f"config error: {reason}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["potentials", "hydro", "reconstruct"])
def test_a_structure_without_an_enhancement_exits_2(tmp_path, capsys, command):
    # genus2 validates, and its handler refuses it before any work
    cfg = {"command": command, "structure": "genus2", "seed": 1}
    assert validate_config(dict(cfg)).items() >= cfg.items()
    assert run(cfg, str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == "config error: genus2 has no enhancement in the catalog\n"
    assert not (tmp_path / "r.json").exists()


def test_potentials_verifies_each_catalog_potential_at_its_own_seed(tmp_path):
    # one entry per potential of the enhanced structure, potential idx at seed + idx
    code, out = _run(tmp_path, {"command": "potentials", "structure": "benney", "n": 2,
                                "seed": 3, "samples": 5, "tol": 1e-9})
    body = json.loads(out.read_text())
    assert code == 0 and body["extras"] == {}
    enh = catalog.CATALOG["benney"].build_enhanced(2)
    want = [verify_potential(enh, pot, 5, 3 + idx, 1e-9)
            for idx, pot in enumerate(catalog.build_potentials("benney", 2))]
    assert [(e["identity"], e["samples"], e["max_residual"], e["tolerance"])
            for e in body["reports"]] == [
        (r.identity, 5, r.max_residual, 1e-9) for r in want]


# ---------------------------------------------------------------------------
# each kind of cli.KEYS: a value that runs in milliseconds, and the values it
# refuses; a direct test per key, and one fuzz drawn from the table
# ---------------------------------------------------------------------------

_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.integers(min_value=2**1024, max_value=2**1030),
                  st.lists(st.integers(-2, 2), max_size=4),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_INDICES = st.integers(0, 3)  # some past a small family's count, which its handler refuses
_KINDS = {
    "a non-negative integer": (_INDICES | st.integers(0, 2**31), [-1, -2**31]),
    "a positive integer": (st.integers(1, 3), [0, -1]),
    "a positive number": (st.floats(0.0, exclude_min=True, allow_infinity=False), [0.0, -2.5]),
    # an int past float range too: float() of it overflows
    "a real number": (st.floats(allow_nan=False, allow_infinity=False), [math.nan, 10**400]),
    "a path string": (st.just("fuzz.json"), ["", 5]),
    f"one of {sorted(catalog.CATALOG)}": (st.sampled_from(sorted(catalog.CATALOG)), ["genus7"]),
    "2 distinct integers": (st.lists(_INDICES, min_size=2, max_size=2, unique=True),
                            [[0, 0], [], [0, 1, 2], [0, "1"]]),
    "3 distinct integers": (st.lists(_INDICES, min_size=3, max_size=3, unique=True),
                            [[0, 0, 1], [], [0, 1, 2, 3], [0, 1, "2"]]),
    "a list of disjoint slot lists": (st.lists(st.lists(_INDICES, max_size=3), max_size=2),
                                      [[[0, 1], [1, 2]], 5, [0, 1], [[0.5]]]),
    "three real numbers": (st.lists(st.floats(1.0, 8.0), min_size=3, max_size=3).map(sorted)
                           | st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3),
                           [[1.5, 2.9], [1.5, 2.9, "4.1"], [1.5, 2.9, 4.1, 5.0]]),
}


_REFUSED = [*((key, value) for key, row in cli.KEYS.items()
              for value in _KINDS[row.kind.__doc__][1]),
            *((key, row.bound[0] + 1) for key, row in cli.KEYS.items() if row.bound)]


@pytest.mark.parametrize("key,value", _REFUSED,
                         ids=[f"{key}-{i}" for i, (key, _) in enumerate(_REFUSED)])
def test_a_refused_value_of_each_key_exits_2_naming_it(tmp_path, capsys, key, value):
    command = next(iter(cli.KEYS[key].defaults))
    assert run({**_cheap(command), key: value}, str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "r.json").exists()


def _value(key, valid):
    """A value of ``key`` its kind admits (cheap; a z_count hydro runs on), or
    one it refuses (past its bound too)."""
    row = cli.KEYS[key]
    admitted, refused = _KINDS[row.kind.__doc__]
    if valid:
        return st.integers(11, 20) if key == "z_count" else admitted
    past = [st.integers(min_value=row.bound[0] + 1)] if row.bound else []
    return st.one_of(st.sampled_from(refused), _JUNK, *past)


@st.composite
def _configs(draw, commands):
    """A config of one of ``commands`` as cli.KEYS declares it: each key its
    command takes at a valid value (always for a mandatory or cost-setting
    key, so no job runs long) or left to its default; then up to two keys,
    the command or any key of the table, set to a refused value (a key its
    command does not take is refused whatever its value)."""
    command = draw(st.sampled_from(commands))
    cfg = {"command": command}
    for key, row in cli.TAKES[command].items():
        if row.bound or row.defaults[command] is cli.REQUIRED or draw(st.booleans()):
            cfg[key] = draw(_value(key, valid=True))
    for key in draw(st.lists(st.sampled_from(["command", *cli.KEYS]), max_size=2, unique=True)):
        cfg[key] = draw(st.sampled_from(["Verify", *cli.HANDLERS]) | _JUNK if key == "command"
                        else _value(key, valid=False))
    return cfg


_FUZZED = {}


def _never_raise(*commands, examples):
    _FUZZED[commands] = examples

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=_configs(commands))
    def fuzz(tmp_path, cfg):
        _run_fuzz(tmp_path, cfg)

    return fuzz


test_rauch_configs_never_raise = _never_raise("rauch", examples=150)
test_verify_potentials_collide_configs_never_raise = _never_raise(
    "verify", "potentials", "collide", examples=200)
test_gtsys_configs_never_raise = _never_raise("gtsys", examples=200)
test_pushforward_configs_never_raise = _never_raise("pushforward", examples=80)
test_hydro_reconstruct_report_configs_never_raise = _never_raise(
    "hydro", "reconstruct", "report", examples=150)


def test_the_fuzz_draws_every_key_the_table_declares():
    drawn = {(command, key) for commands in _FUZZED for command in commands
             for key in cli.TAKES[command]}
    assert drawn == {(command, key) for key, row in cli.KEYS.items() for command in row.defaults}
    assert {row.kind.__doc__ for row in cli.KEYS.values()} == set(_KINDS)
    assert sum(_FUZZED.values()) <= 780


def test_pushed_genus2_circle_through_non_finite_values_names_its_cause(tmp_path):
    # at this scale the pushed f's Laurent circle samples overflow; the job
    # stops on the first such circle of its three instead of reading NaN
    # residuals
    cfg = {"command": "pushforward", "structure": "genus2", "seed": 1, "samples": 3,
           "scale": 1e200}
    assert run(cfg, str(tmp_path / "r.json")) == 1
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["error"].startswith(
        "DomainViolation: genus2:pushed f: non-finite samples on circle 0 of 3")
    assert report["error"].endswith("in slot 0")
    assert report["reports"] == []


@pytest.mark.filterwarnings("error")
def test_genus1_march_overflowing_theta_names_its_cause(tmp_path):
    # this march carries p far off the real axis, where the theta series
    # overflows float64: the job fails on that series, with no warning,
    # traceback or non-finite residual
    cfg = {"command": "gtsys", "structure": "genus1", "n": 1, "states": 2, "steps": 2,
           "h": 0.005, "seed": 2081142491}
    assert run(cfg, str(tmp_path / "r.json")) == 1
    text = (tmp_path / "r.json").read_text()
    report = json.loads(text)
    assert report["error"].startswith("OverflowError: theta series overflows at p = ")
    assert ", tau = " in report["error"]
    assert report["reports"] == []
    assert "nan" not in text and "inf" not in text


# a small value of each key that sets a job's size (hydro needs 3 m + 5 z
# points, 17 on genus1 at n = 3)
_MINIMAL = {"samples": 2, "states": 2, "steps": 2, "z_count": 20}


def _minimal_jobs():
    """One config per command and catalog structure, at the smallest n the command
    accepts there (first of 1, 2, 3) and the sizes of ``_MINIMAL``, plus report and
    rauch, which take no structure."""
    for command in cli.HANDLERS:
        sizes = {key: value for key, value in _MINIMAL.items() if key in cli.TAKES[command]}
        if "structure" not in cli.TAKES[command]:
            yield [{"command": command, "seed": 7, **sizes}]
            continue
        for name in catalog.CATALOG:
            yield [{"command": command, "structure": name, "n": n, "seed": 7, **sizes}
                   for n in (1, 2, 3)]


def test_no_job_meets_a_partial_without_a_closed_form(tmp_path):
    # every partial a job asks has a closed form: a NoClosedForm is a
    # GTLabError, so a job meeting one would exit 1 with a report (which the
    # config fuzz does not flag); no job's report may name it.  A config
    # exiting 2 (genus2 has no enhancement, a collision needs two punctures)
    # moves on to the next n
    ran = []
    for tries in _minimal_jobs():
        for cfg in tries:
            out = tmp_path / "job.json"
            code = run(cfg, str(out))
            if code == 2:
                continue
            report = json.loads(out.read_text())
            assert code in (0, 1) and "NoClosedForm" not in str(report["error"]), (cfg, report)
            ran.append((cfg["command"], cfg.get("structure")))
            break
    # every (command, structure) the CLI takes, genus2 only where it has the data
    assert Counter(command for command, _ in ran) == {
        "verify": 4, "collide": 3, "pushforward": 4, "potentials": 3, "gtsys": 4, "hydro": 3,
        "reconstruct": 3, "rauch": 1, "report": 1}
