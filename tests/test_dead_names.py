"""Every module-level function and class of the package, and every method
of its classes, is used somewhere; evaluators override ``eval_rows``, never
``eval_circle``, and no second circle routine exists: only
``kernel.laurent_coeff`` calls ``eval_circle`` and reads coefficients off
its samples (``_circle_coeff``), no one-point derivative routine or
extrapolating evaluator class is left; no partial comes from a circle: the
circle routines take no partial rest, ``JetEvaluator._table`` opens no
circle, no radius rule is left, and only the residue checks call
``laurent_coeff``; only ``Domain`` answers a
per-slot ``clearance``; only ``kernel.on_columns`` asks whether a value is
an array, so no locus keeps a branch for numbers; no evaluator is flagged
as taking columns, since every one does; gtsys's per-pair mixed rule and
its batch class stay out of the package; the transforms keep no per-slot
chain rule beside their jet rule; no potential is integrated along a
path, so only hyperell's period rules call ``gauss_legendre``; every
backticked ``module.name`` of the README names an attribute of that
module; and each line that ``tests/linecover.py`` may find unrun is an
executable line named with a reason.  Every public name has a caller in the
package or the benchmark, or a reason in ``LIBRARY_ONLY``.

A definition counts as used when its name appears as a code token in the
package, the tests or the benchmark besides its own definitions.  Names
inside strings and comments do not count (the tracer's, which name what it
wraps, do for ``LIBRARY_ONLY``); dunder methods are exempt.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import tokenize
from collections import Counter
from pathlib import Path

from gtlab import catalog, core, kernel

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtlab"
SEARCHED = (PACKAGE, ROOT / "tests", ROOT / "bench")


def _name_tokens(bases=SEARCHED) -> Counter:
    counts: Counter = Counter()
    for base in bases:
        for path in [base] if base.is_file() else sorted(base.rglob("*.py")):
            with tokenize.open(path) as fh:
                for tok in tokenize.generate_tokens(fh.readline):
                    if tok.type == tokenize.NAME:
                        counts[tok.string] += 1
    return counts


def _module_level_definitions() -> list[tuple[str, str]]:
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name))
    return defs


def test_every_module_level_definition_is_referenced():
    tokens = _name_tokens()
    defs = _module_level_definitions()
    def_counts = Counter(name for _, name in defs)
    unused = sorted(f"{module}:{name}" for module, name in defs
                    if tokens[name] <= def_counts[name])
    assert not unused, f"defined but never referenced: {unused}"


def _method_definitions() -> list[tuple[str, str]]:
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("__")):
                    defs.append((f"{path.name}:{cls.name}", node.name))
    return defs


def test_every_method_is_referenced():
    tokens = _name_tokens()
    methods = _method_definitions()
    def_counts = Counter(name for _, name in _module_level_definitions() + methods)
    unused = sorted(f"{owner}.{name}" for owner, name in methods
                    if tokens[name] <= def_counts[name])
    assert not unused, f"defined but never referenced: {unused}"


# public names that nothing in the package or the benchmark calls, each kept
# on purpose for library users and the tests, with the reason
LIBRARY_ONLY = {
    "catalog.build_structure": "the catalog's entry point by name; jobs read CATALOG rows",
    "core.add_points": "new punctures on a structure; no command takes them yet",
    "core.collide_enhanced": "lambda under a collision; the collide command verifies g and f",
    "core.pushforward_lambda": "lambda under a coordinate change; pushforward verifies g and f",
    "gtsys.inject_defect": "the polluted f the tests feed the compatibility check to detect",
    "hierarchy.PotentialFamily.independence_rank": "the family's rank at one fiber point, "
                                                   "a test oracle for functional independence",
    "hierarchy.criterion_integrable": "the pairwise integrability criterion; no command runs it",
    "kernel.Domain.clearance": "sizes the circle radii of the README's recipe and the tests' "
                               "circle oracles",
    "kernel.theta": "the odd theta series at one point, a test oracle for the theta kernels",
    "kernel.rho": "theta'/theta at one point, a test oracle for the rho kernels",
}


def _tracer_strings() -> Counter:
    """The string constants of bench/tracer.py: the names it wraps."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return Counter(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))


def test_every_public_name_has_a_caller_or_a_reason():
    # a public function, class or method that no code of the package or the
    # benchmark calls (the tracer's strings count) is library-only on purpose,
    # with a reason in LIBRARY_ONLY; an entry whose name gains a caller leaves
    # the table
    tokens = _name_tokens([PACKAGE, ROOT / "bench"]) + _tracer_strings()
    defs = _module_level_definitions() + _method_definitions()
    def_counts = Counter(name for _, name in defs)
    uncalled = {f"{owner.replace('.py', '').replace(':', '.')}.{name}" for owner, name in defs
                if not name.startswith("_") and tokens[name] <= def_counts[name]}
    assert all(len(reason.split()) > 3 for reason in LIBRARY_ONLY.values())
    assert sorted(uncalled - set(LIBRARY_ONLY)) == [], "public with no caller and no reason"
    assert sorted(set(LIBRARY_ONLY) - uncalled) == [], "called, or gone, yet listed"


def test_only_the_base_evaluator_defines_eval_circle():
    # eval_circle builds the loops of N circles and hands them to eval_rows;
    # an override would bypass wrappers that map loops into what they wrap,
    # and a point's circle is a column of one, so no routine answers N
    # circles beside it
    owners = sorted(owner for owner, name in _method_definitions() if name == "eval_circle")
    assert owners == ["kernel.py:JetEvaluator"], owners
    assert [owner for owner, name in _method_definitions() if name == "eval_circles"] == []


def _callers(attr: str) -> list[str]:
    """The top-level definition or method (module:Class.method) around each
    call of ``<something>.attr(...)`` or ``attr(...)`` in the package."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            scopes = [(getattr(top, "name", "<module>"), top)]
            if isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{getattr(node, 'name', '<class>')}", node)
                          for node in top.body]
            callers += [f"{path.name}:{name}" for name, scope in scopes
                        for node in ast.walk(scope) if isinstance(node, ast.Call)
                        and attr in (getattr(node.func, "attr", None),
                                     getattr(node.func, "id", None))]
    return callers


def test_every_circle_is_read_through_laurent_coeff():
    # one circle routine: the residues of verify_pole and verify_lambda read
    # their coefficients through kernel.laurent_coeff, the one caller of
    # eval_circle and of _circle_coeff, and eval_circle alone lays out the
    # unit ring; the one-point derivative and the evaluator class that
    # extrapolated values (whose partials were circles) are gone
    assert _callers("eval_circle") == ["kernel.py:laurent_coeff"]
    assert _callers("_circle_coeff") == ["kernel.py:laurent_coeff"]
    assert _callers("_ring") == ["kernel.py:JetEvaluator.eval_circle"]
    tokens = _name_tokens([PACKAGE])
    assert [name for name in ("cauchy_derivative", "_RichardsonLimit") if tokens[name]] == []


def test_no_partial_is_read_off_a_circle():
    # every partial is a closed form or a NoClosedForm: the circle routines
    # sample values only (no partial rest), the kernel keeps no rule for a
    # derivative circle's radius, JetEvaluator._table calls no circle
    # routine, and in the package only the residue checks call laurent_coeff
    # (a partial_fn without a closed form may, from outside the package)
    routines = ("eval_rows", "eval_circle", "laurent_coeff")
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in routines:
                assert "rests" not in [a.arg for a in node.args.args], (path.name, node.name)
    assert _name_tokens([PACKAGE])["rests"] == 0
    assert [name for name in ("_radii", "DEFAULT_RADIUS_FRACTION", "MAX_RADIUS")
            if _name_tokens([PACKAGE])[name]] == []
    kernel_tree = ast.parse((PACKAGE / "kernel.py").read_text(encoding="utf-8"))
    evaluator = next(node for node in kernel_tree.body
                     if getattr(node, "name", "") == "JetEvaluator")
    table = next(node for node in evaluator.body if getattr(node, "name", "") == "_table")
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(table) if isinstance(node, ast.Call)}
    assert called.isdisjoint({*routines, "_circle_coeff", "_ring"}), called
    assert _callers("laurent_coeff") == ["core.py:_residues"]


def test_no_potential_is_integrated_along_a_path():
    # every potential is a closed form: the contour potential and its path
    # code are gone, so no second circle quadrature (Gauss-Legendre arcs)
    # stands beside laurent_coeff's, and the Gauss-Legendre rules serve
    # hyperell's period rules alone
    tokens = _name_tokens([PACKAGE])
    gone = ("PathSpec", "path_integrate", "circle_path", "polyline_path",
            "potential_from_contour", "contour_endpoint_defect")
    assert [name for name in gone if tokens[name]] == []
    assert sorted(set(_callers("gauss_legendre"))) == ["hyperell.py:_theta_rule"]


def test_every_module_name_in_the_readme_resolves():
    # a backticked `module.name` in README.md names an attribute of that
    # gtlab module, so the README cannot go on describing removed code; a
    # file name such as `cli.py` is no attribute and is skipped
    modules = {path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    pattern = re.compile(r"`(%s)\.(\w+)" % "|".join(sorted(modules)))
    named = {match.groups() for match in pattern.finditer((ROOT / "README.md").read_text())}
    named = {(module, name) for module, name in named
             if not (PACKAGE / f"{module}.{name}").exists()}
    assert named
    missing = sorted(f"{module}.{name}" for module, name in named
                     if not hasattr(importlib.import_module(f"gtlab.{module}"), name))
    assert missing == [], missing


def test_a_collision_opens_no_circle_for_its_first_partials(monkeypatch):
    # the collided g's and lambda are formulas over benney's closed forms, so
    # their first partials come from the jet rule: the bracket check opens no
    # circle and the lambda check only its residue circles
    opened = []
    eval_circle = kernel.JetEvaluator.eval_circle

    def counted(e, *args, **kwargs):
        opened.append(e.label)
        return eval_circle(e, *args, **kwargs)

    monkeypatch.setattr(kernel.JetEvaluator, "eval_circle", counted)
    collided = core.collide_enhanced(catalog.benney_enhanced(2), [[0, 1]])
    rep = core.verify_bracket(collided.base, 10)
    assert rep.passed, rep.max_residual
    assert opened == []
    rep = core.verify_lambda(collided, 10)
    assert rep.passed, rep.max_residual
    assert opened == [collided.lam.label]


def test_only_the_domain_defines_clearance():
    # a locus answers one distance over its slots; how far one slot may
    # move is the domain's question alone
    owners = sorted(owner for owner, name in _method_definitions() if name == "clearance")
    assert owners == ["kernel.py:Domain"], owners


def _tells_a_point_from_columns(node: ast.AST) -> bool:
    """Whether ``node`` is ``isinstance(<anything>, <a type naming ndarray>)``:
    a test of whether a value is a number or an array of them."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and "ndarray" in ast.unparse(node.args[1]))


def test_one_entry_point_answers_points_and_columns():
    # partials and value take a point or a tuple of argument columns: the
    # kernel alone tells which, in on_columns, and nothing else asks whether
    # a value is an array (every locus and the sampler read columns only);
    # no second entry for columns exists
    tests = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in tree.body:
            tests += [f"{path.name}:{getattr(fn, 'name', '?')}" for node in ast.walk(fn)
                      if _tells_a_point_from_columns(node)]
    assert tests == ["kernel.py:on_columns"], tests
    assert [d for d in _module_level_definitions() if "on_columns" in d[1]] == [
        ("kernel.py", "on_columns")]
    assert _name_tokens([PACKAGE])["columns_fn"] == 0
    assert [owner for owner, name in _method_definitions() if name == "columns"] == []


def test_no_evaluator_is_flagged_as_taking_columns():
    # every fn and partial_fn answers a point and argument columns alike, so
    # no name in the package may say which do: a `columns` flag or attribute
    # would bring back a second evaluation path
    assert _name_tokens([PACKAGE])["columns"] == 0


def test_the_march_reads_one_stacked_record_through_one_mixed_pass():
    # gtsys's checks take every d_a d_b from one stacked pass over the
    # record _flows builds: the per-pair rule (_mixed, _chain, _derivative,
    # and _b_row, one B_l at a time) lives on only as the oracle in
    # tests/test_gtsys.py, no batch class joins states, and _flows builds
    # its record by gathers, with no NaN table and no assignment into one
    tokens = _name_tokens([PACKAGE])
    dead = ("_State", "_mixed", "_chain", "_derivative", "_b_row")
    assert [name for name in dead if tokens[name]] == []
    assert [owner for owner, name in _method_definitions() if name == "join"] == []
    tree = ast.parse((PACKAGE / "gtsys.py").read_text(encoding="utf-8"))
    flows = next(node for node in tree.body if getattr(node, "name", "") == "_flows")
    assert [node for node in ast.walk(flows) if isinstance(node, ast.Attribute)
            and node.attr in ("nan", "full")] == []
    assert [node for node in ast.walk(flows) if isinstance(node, (ast.Assign, ast.AugAssign))
            and any(isinstance(target, ast.Subscript)
                    for target in getattr(node, "targets", [getattr(node, "target", None)]))] == []


def test_transforms_take_their_first_partials_from_one_jet_rule():
    # pushed and collided evaluators take every first partial from their
    # value formula on jets (core._Formula), so no per-slot chain rule lives
    # beside it: no rates of a moving slot (_moved), no map from a slot to
    # mu's (_mu_slots), no composition map apart from its formula
    # (to_inner), and in core no `first` rule, `outer` step or `moved`
    # partials
    assert [name for name in ("_moved", "_mu_slots", "to_inner")
            if _name_tokens([PACKAGE])[name]] == []
    core = _name_tokens([PACKAGE / "core.py"])
    assert [name for name in ("first", "outer", "moved") if core[name]] == []


def test_every_line_left_unrun_on_purpose_is_named_with_a_reason():
    # the CI step tests/linecover.py fails on a line of src/gtlab that no test
    # runs unless tests/unrun_lines.txt names it; every entry there names an
    # executable line of its file, with a reason
    spec = importlib.util.spec_from_file_location("linecover", ROOT / "tests" / "linecover.py")
    linecover = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecover)
    entries = linecover.allowed()
    assert entries
    for (name, text), reason in entries.items():
        lines = (PACKAGE / name).read_text().splitlines()
        named = [n for n in linecover.executable(PACKAGE / name) if lines[n - 1].strip() == text]
        assert named and len(reason.split()) > 3, (name, text, reason)
