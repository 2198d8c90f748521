"""CLI: config schema, exit codes, report format, byte determinism."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtlab import catalog, gtsys, hierarchy, hyperell
from gtlab.cli import emit_report, main, run, validate_config
from gtlab.core import verify_potential
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
    assert validate_config(dict(BASE)) == BASE


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
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.CONFIGS:
        for cfg in workloads.generate(name, 101, workloads.REF_SECONDS):
            assert validate_config(dict(cfg)) == cfg


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
    code, out = _run(tmp_path, {"structure": "genus0", "n": 2, "seed": 5, **cfg})
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


@pytest.mark.parametrize("leaf", [np.int64(3), np.array([1.0]), np.bool_(True), object()])
def test_a_leaf_json_cannot_write_raises_type_error(tmp_path, leaf):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        emit_report({"x": [leaf]}, str(tmp_path / "bad.json"), "")
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json.dumps(_reference_form({"x": [leaf]}))


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
    assert validate_config(dict(cfg)) == cfg
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
# config fuzzing
# ---------------------------------------------------------------------------

_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.lists(st.integers(-2, 2), max_size=4),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_MODULI = st.one_of(
    st.lists(st.floats(1.0, 8.0), min_size=3, max_size=3).map(sorted),
    st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3),
    st.lists(st.floats(1.0, 8.0), min_size=0, max_size=5),
    _JUNK,
)
_RAUCH = st.fixed_dictionaries(
    {"command": st.just("rauch"), "seed": st.integers(0, 2**31)},
    optional={
        "moduli": _MODULI,
        "nodes": st.one_of(st.integers(1, 64), st.integers(max_value=0),
                           st.integers(min_value=hyperell.MAX_NODES + 1), _JUNK),
        "branch": st.one_of(st.integers(-1, 3), _JUNK),
        "delta": st.one_of(st.floats(1e-8, 10.0), st.floats(), _JUNK),
        "tol": st.one_of(st.floats(1e-12, 1.0), _JUNK),
    },
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_RAUCH)
def test_rauch_configs_never_raise(tmp_path, cfg):
    _run_fuzz(tmp_path, cfg)


# a well-formed verify / potentials / collide config on a rational structure,
# with up to two keys replaced by an out-of-range or junk value
_GOOD = {
    "structure": st.sampled_from(["benney", "genus0"]),
    "seed": st.integers(0, 2**31),
    "samples": st.integers(1, 3),
}
_OPTIONAL = {"n": st.integers(1, 3), "tol": st.floats(1e-300, 1.0)}
_SLOTS = st.lists(st.integers(-1, 4), max_size=3)
_BAD = {
    "command": st.one_of(st.sampled_from(["Verify", "rauch"]), _JUNK),
    "structure": st.one_of(st.sampled_from(["genus7", ""]), _JUNK),
    "seed": st.one_of(st.integers(max_value=-1), _JUNK),
    "samples": st.one_of(st.integers(max_value=0), _JUNK),
    "n": st.one_of(st.integers(max_value=0), _JUNK),
    "tol": st.one_of(st.floats(max_value=0.0), st.floats(), _JUNK),
    "groups": st.one_of(st.lists(_SLOTS, max_size=3), _SLOTS, _JUNK),
    "pair": st.one_of(st.lists(st.integers(-1, 9), max_size=3), _JUNK),
    "index": st.one_of(st.integers(-1, 9), _JUNK),
    "scale": st.one_of(st.floats(), _JUNK),
}


@st.composite
def _rational_configs(draw):
    cfg = {"command": draw(st.sampled_from(["verify", "potentials", "collide"]))}
    cfg.update({key: draw(value) for key, value in _GOOD.items()})
    for key, value in _OPTIONAL.items():
        if draw(st.booleans()):
            cfg[key] = draw(value)
    if cfg["command"] == "collide":
        cfg["groups"] = draw(st.lists(st.lists(st.integers(0, 3), max_size=3),
                                      max_size=2))
    for key in draw(st.lists(st.sampled_from(sorted(_BAD)), max_size=2,
                             unique=True)):
        cfg[key] = draw(_BAD[key])
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_rational_configs())
def test_verify_potentials_collide_configs_never_raise(tmp_path, cfg):
    _run_fuzz(tmp_path, cfg)


# a well-formed gtsys config on a rational structure, small enough to run in
# a few milliseconds, with up to two keys replaced by an out-of-range or junk
# value
_GTSYS_GOOD = {
    "structure": st.sampled_from(["benney", "genus0"]),
    "n": st.integers(1, 2),
    "seed": st.integers(0, 2**31),
    "states": st.integers(1, 2),
    "steps": st.just(2),
}
_GTSYS_BAD = {
    "command": st.one_of(st.sampled_from(["GTSYS", "hydro"]), _JUNK),
    "structure": st.one_of(st.sampled_from(["genus7", ""]), _JUNK),
    "n": st.one_of(st.integers(max_value=0), _JUNK),
    "seed": st.one_of(st.integers(max_value=-1), _JUNK),
    "states": st.one_of(st.integers(max_value=0), _JUNK),
    "steps": st.one_of(st.integers(max_value=1), _JUNK),
    "M": st.one_of(st.integers(max_value=2), _JUNK),
    "h": st.one_of(st.floats(max_value=0.0), st.floats(), st.floats(1e3, 1e300), _JUNK),
    "tol": st.one_of(st.floats(max_value=0.0), st.floats(), _JUNK),
    "samples": _JUNK,
}


@st.composite
def _gtsys_configs(draw):
    cfg = {"command": "gtsys"}
    cfg.update({key: draw(value) for key, value in _GTSYS_GOOD.items()})
    for key in draw(st.lists(st.sampled_from(sorted(_GTSYS_BAD)), max_size=2,
                             unique=True)):
        cfg[key] = draw(_GTSYS_BAD[key])
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_gtsys_configs())
def test_gtsys_configs_never_raise(tmp_path, cfg):
    _run_fuzz(tmp_path, cfg)


# a pushforward config on benney, genus0 or genus2, small enough to run in
# tens of milliseconds, with scale zero, negative, huge or junk
_PUSHFORWARD = st.fixed_dictionaries(
    {"command": st.just("pushforward"),
     "structure": st.sampled_from(["benney", "genus0", "genus2"]),
     "n": st.integers(1, 2),
     "seed": st.integers(0, 2**31),
     "samples": st.integers(1, 2)},
    optional={"scale": st.one_of(st.just(0), st.just(0.0), st.floats(-10.0, -1e-300),
                                 st.floats(1e3, 1e308), st.floats(-1e308, -1e3),
                                 st.floats(), _JUNK)},
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_PUSHFORWARD)
def test_pushforward_configs_never_raise(tmp_path, cfg):
    _run_fuzz(tmp_path, cfg)


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


# a well-formed hydro, reconstruct or report config, small enough to run in
# tens of milliseconds, with up to two keys replaced by an out-of-range or
# junk value (cost-setting keys stay small: a huge z_count or n is a valid
# config that runs long, not a failure to close)
_HIERARCHY_GOOD = {
    "hydro": {"structure": st.sampled_from(["benney", "genus0", "genus1", "genus2"]),
              "n": st.integers(2, 3), "z_count": st.integers(11, 20)},
    "reconstruct": {"structure": st.sampled_from(["benney", "genus0", "genus1", "genus2"]),
                    "n": st.integers(2, 3), "samples": st.integers(1, 3)},
    "report": {"samples": st.integers(1, 2)},
}
_HIERARCHY_OPTIONAL = {
    "hydro": {"triple": st.lists(st.integers(0, 3), min_size=3, max_size=3),
              "svd_tol": st.floats(1e-14, 1e-2), "tol": st.floats(1e-300, 1.0)},
    "reconstruct": {"pair": st.lists(st.integers(0, 3), min_size=2, max_size=2),
                    "index": st.integers(0, 3), "tol": st.floats(1e-300, 1.0)},
    "report": {"tol": st.floats(1e-300, 1.0), "n": st.integers(1, 3)},
}
_HIERARCHY_BAD = {
    "command": st.one_of(st.sampled_from(["Hydro", "verify"]), _JUNK),
    "structure": st.one_of(st.sampled_from(["genus7", ""]), _JUNK),
    "n": st.one_of(st.integers(max_value=0), _JUNK),
    "seed": st.one_of(st.integers(max_value=-1), _JUNK),
    "samples": st.one_of(st.integers(max_value=0), _JUNK),
    "tol": st.one_of(st.floats(max_value=0.0), st.floats(), _JUNK),
    "z_count": st.one_of(st.integers(max_value=10), _JUNK),
    "svd_tol": st.one_of(st.floats(max_value=0.0), st.floats(), st.floats(1.0, 1e300), _JUNK),
    "triple": st.one_of(st.lists(st.integers(-1, 9), max_size=4), _JUNK),
    "pair": st.one_of(st.lists(st.integers(-1, 9), max_size=3), _JUNK),
    "index": st.one_of(st.integers(-9, 9), _JUNK),
}


@st.composite
def _hierarchy_configs(draw):
    command = draw(st.sampled_from(sorted(_HIERARCHY_GOOD)))
    cfg = {"command": command, "seed": draw(st.integers(0, 2**31))}
    cfg.update({key: draw(value) for key, value in _HIERARCHY_GOOD[command].items()})
    for key, value in _HIERARCHY_OPTIONAL[command].items():
        if draw(st.booleans()):
            cfg[key] = draw(value)
    for key in draw(st.lists(st.sampled_from(sorted(_HIERARCHY_BAD)), max_size=2,
                             unique=True)):
        cfg[key] = draw(_HIERARCHY_BAD[key])
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_hierarchy_configs())
def test_hydro_reconstruct_report_configs_never_raise(tmp_path, cfg):
    _run_fuzz(tmp_path, cfg)
