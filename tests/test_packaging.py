"""Packaging: the source tree ships the package, no dangling entry point,
no runtime dependency beyond mpmath, no dataclasses at import, no assert
statement or raised AssertionError, no except that hides a failure, one
modular layer (the GF(p)[x] kernels in intpoly only) and no import in a
function body, the cache reads that the benchmark makes, one precision
ladder for the probes of nfield and classify, and in classify:
verdict bodies called on a built field rather than their parsers, one raise
of a failed witness search, and one builder of the unit lattice."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from setuptools import find_packages

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent


def test_find_packages_sees_mahlerdyn():
    assert find_packages(where=str(ROOT / "src")) == ["mahlerdyn"]


def test_scripts_name_existing_modules():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for target in project.get("scripts", {}).values():
        module = target.split(":")[0]
        path = ROOT / "src" / Path(*module.split("."))
        assert path.with_suffix(".py").is_file() or (path / "__init__.py").is_file(), target


def test_runtime_imports_mpmath_only():
    # sympy is a test extra: every top-level module that the package's
    # imports load from outside the standard library is mahlerdyn or mpmath
    # (site hooks load theirs before)
    code = (
        "import sys; before = set(sys.modules); "
        "import mahlerdyn.roots, mahlerdyn.algnum, mahlerdyn.mahler, mahlerdyn.nfield, mahlerdyn.classify; "
        "top = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(top - set(sys.stdlib_module_names) - {'mahlerdyn', 'mpmath'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout.strip() == "[]"


def test_runtime_imports_no_dataclasses():
    # dataclasses loads inspect, ast and dis, about 7 ms and 1 MB of every
    # cold start; the value types derive from errors.Record instead
    paths = sorted((ROOT / "src" / "mahlerdyn").glob("*.py"))
    modules = ", ".join(f"mahlerdyn.{path.stem}" for path in paths if path.stem != "__init__")
    code = f"import sys, {modules}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _src_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names)
    ]
    assert found == []


def test_no_assert_statements():
    # python -O strips asserts, so every exact check must be a raised error
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "mahlerdyn").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_raise_assertion_error():
    # an AssertionError is no MahlerdynError: a caller that catches the
    # package's errors would not see the failed check
    def raised(node) -> str:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", "")

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "mahlerdyn").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and raised(node) == "AssertionError"
    ]
    assert found == []


def test_no_except_hides_a_failure():
    # a bare except, or one on Exception, BaseException or BoxAmbiguous,
    # would turn a failed exact check or an ambiguous root into a silent retry
    broad = {None, "Exception", "BaseException", "BoxAmbiguous"}  # None: a bare except

    def caught(node) -> set:
        if node is None:
            return {None}
        if isinstance(node, ast.Tuple):
            return set().union(*map(caught, node.elts))
        return {node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")}

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "mahlerdyn").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler) and broad & caught(node.type)
    ]
    assert found == []


def test_no_unused_module_imports():
    # a name imported at module level and never read again is dead weight
    # (no linter is installed, so this is the check); in a test module it is
    # often a helper that was deleted
    found = []
    for path in sorted((ROOT / "src" / "mahlerdyn").glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def test_no_unread_private_module_names():
    # a module-level _name (def, class or assignment) that no module of the
    # package reads is a leftover of deleted code
    paths = sorted((ROOT / "src" / "mahlerdyn").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    assert found == []


def _src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "mahlerdyn").glob("*.py"))}


def test_only_intpoly_defines_gf_kernels():
    # every GF(p)[x] kernel is in intpoly; factor holds the readers built on
    # them, so a second copy of one would be a second modular layer
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in _src_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_gf_") and name != "intpoly"
    ]
    assert found == []


def test_field_modules_import_no_gf_kernel():
    # the modules above factor ask it for modular facts (the Frobenius root
    # count, degree sets) and never compose the kernels by hand
    trees = _src_trees()
    found = [
        f"{name}:{node.lineno} {alias.name}"
        for name in ("nfield", "classify", "algnum", "mahler", "roots")
        for node in ast.walk(trees[name])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.startswith("_gf_")
    ]
    assert found == []


def test_no_import_in_a_function_body():
    # a deferred import hides an import cycle between modules
    found = [
        f"{name}:{node.lineno} in {fn.name}"
        for name, tree in _src_trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_one_enclosure_stream_per_value():
    # a field element's balls come from nfield._embeds, on the rungs of
    # _LAYOUT_PREC, and from _log_abs's climb for log intervals; a power of
    # a measure is pinned on the minpoly that wandering_certificate's screen
    # has in hand, so mahler builds no power through an_pow
    trees = _src_trees()
    callers = [
        f"{name}.{fn.name}"
        for name, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) == "nf_embed"
    ]
    assert sorted(callers) == ["nfield._embeds", "nfield._log_abs"]
    named = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None))) for n in ast.walk(trees["mahler"])}
    assert "an_pow" not in named


def test_benchmark_cache_reads_work():
    # bench/worker.py reads the three caches by name in every pass: the
    # measure cache's size, and the hits and misses of the two lru caches;
    # a cache policy that changes one of them must change those reads too
    from mahlerdyn import factor, mahler, roots

    assert isinstance(len(mahler._measure_cache), int)
    for fn in (roots._isolate_cached, factor._factor_cached):
        info = fn.cache_info()
        assert isinstance(info.hits, int) and isinstance(info.misses, int)


def test_log_intervals_make_no_fraction():
    # nfield's log intervals are ints at the unit 2^-(prec + _GUARD) from
    # the mpmath log to the rank certificate; a Fraction in the body of one
    # of these (a call, or the class passed on) would bring the rational
    # format back
    tree = ast.parse((ROOT / "src" / "mahlerdyn" / "nfield.py").read_text())
    names = {"_log_interval", "_log_abs", "_place_logs", "_product_logs", "_interval_rank"}
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names}
    assert set(defs) == names
    found = [
        f"{name}:{node.lineno}"
        for name, fn in defs.items()
        for stmt in fn.body
        for node in ast.walk(stmt)
        if getattr(node, "id", getattr(node, "attr", None)) == "Fraction"
    ]
    assert found == []


def test_field_probes_climb_one_ladder():
    # discovery, the Cayley sextic, place logs and every field-element probe
    # climb nfield._LAYOUT_PREC: no other module-level *_PREC ladder and no
    # loop over a literal tuple of precisions (ints of 64 bits or more; index
    # tuples are smaller) in nfield or classify
    trees = _src_trees()
    found = []
    for name in ("nfield", "classify"):
        for node in trees[name].body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [
                    f"{name}:{node.lineno} {t.id}"
                    for t in targets
                    if isinstance(t, ast.Name) and t.id.endswith("_PREC") and t.id != "_LAYOUT_PREC"
                ]
        found += [
            f"{name}:{node.iter.lineno} literal ladder"
            for node in ast.walk(trees[name])
            if isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Tuple)
            and all(isinstance(e, ast.Constant) and type(e.value) is int and e.value >= 64 for e in node.iter.elts)
        ]
    assert found == []


def test_exponent_orbits_compute_no_measure():
    # every field verdict of classify is certified in exponent space: sides
    # on log intervals, and equalities by exact arithmetic in K, the one
    # exact step allowed. A measure, an orbit, a product, power or
    # comparison of algebraic numbers, LLL or a product resolvent called or
    # imported anywhere in the module, or root isolation outside the
    # quintic resolvent, would be a silent fallback to the slow path
    tree = ast.parse((ROOT / "src" / "mahlerdyn" / "classify.py").read_text())
    banned = {"orbit", "mahler_measure", "an_compare", "an_mul", "an_pow", "lll_reduce"}

    def callee(node) -> str:
        return getattr(node.func, "id", getattr(node.func, "attr", ""))

    def barred(name, where) -> bool:
        root_isolation = name == "isolate_roots" and where != "_cayley_sextic"
        return name in banned or name.endswith("_product_poly") or root_isolation

    found = [
        f"{fn.name}:{node.lineno} {callee(node)}"
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and barred(callee(node), fn.name)
    ]
    found += [
        f"{node.lineno} import {alias.name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name in banned or alias.name.endswith("_product_poly")
    ]
    assert found == []


def test_exponent_orbit_is_stepped_by_the_witness_only():
    # every field verdict is read off one orbit per candidate: only
    # _exponent_witness steps _exponent_orbit, and the readers of a cited
    # theorem's facts read the orbit that it hands them. A reference from
    # any other function of classify (a call, or the function passed on)
    # would step a second orbit
    tree = ast.parse((ROOT / "src" / "mahlerdyn" / "classify.py").read_text())
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if getattr(node, "id", getattr(node, "attr", None)) == "_exponent_orbit"
    ]
    assert [where.partition(":")[0] for where in found] == ["_exponent_witness"], found


def _classify_calls(name_of) -> list[tuple[str, str]]:
    """(function, name) for each node of classify's top-level functions
    that name_of names, in source order."""
    tree = ast.parse((ROOT / "src" / "mahlerdyn" / "classify.py").read_text())
    return [
        (fn.name, name)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if (name := name_of(node))
    ]


def test_verdicts_reach_bodies_not_parsers():
    # an entry point that reaches another verdict on its own field calls that
    # verdict's body on the K and Aut(K) it built (_classify_cyclic,
    # _classify_cm), never the public parser, which would build the field
    # again. The one public call is classify_quartic on the quartic subfield
    # of an octic, which is another field
    def public_call(node):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            return name if name.startswith("classify_") else None

    assert _classify_calls(public_call) == [("_classify_octic_galois", "classify_quartic")]


def test_witness_search_fails_in_one_place():
    # every pattern search ends in _first_witness, which raises
    # WitnessSearchFailed with its caller's message; only the subfield
    # product, which runs no pattern search, raises its own
    def raised(node):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            name = getattr(node.exc.func, "id", "")
            return name if name == "WitnessSearchFailed" else None

    assert [fn for fn, _ in _classify_calls(raised)] == ["_first_witness", "_subfield_product_witness"]


def test_unit_lattice_is_built_by_the_witness_search_only():
    # _first_witness builds the unit lattice of the field it searches, once,
    # so the lattice can be swapped in one place
    def built(node):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            return name if name == "nf_unit_sublattice" else None

    assert _classify_calls(built) == [("_first_witness", "nf_unit_sublattice")]
