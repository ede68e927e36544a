"""What `import gradate` loads of scipy and numpy, and how it shares scipy's modules.

gradate calls three compiled scipy functions, and `gradate.ot` loads their
extension modules without any scipy package `__init__`, whose imports cost
most of a process's start-up. It loads none of the modules numpy 2 loads
on first use (numpy.ma, numpy.random) unless a run needs them. Each check
runs in a fresh interpreter, since this one has scipy's packages loaded
already. The declared version floors are checked against what the
installed scipy requires.
"""

import importlib.metadata
import os
import re
import subprocess
import sys
import textwrap
import tomllib
from importlib.machinery import ExtensionFileLoader, ModuleSpec
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy

import gradate
import gradate.ot as ot

EXTENSIONS = (
    "scipy.optimize._lsap",
    "scipy.optimize._highspy._core",
    "scipy.spatial._distance_pybind",
)
HEAVY_PACKAGES = (
    "scipy.optimize",
    "scipy.spatial",
    "scipy.linalg",
    "scipy.sparse",
    "scipy.special",
    "scipy.fft",
)


def within(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def run_fresh(code: str) -> str:
    """stdout of `code` run by a fresh interpreter that imports this gradate."""
    package_root = str(Path(gradate.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_added_by(code: str) -> list[str]:
    """The modules `code` loads, run fresh after numpy, gradate and two path graphs."""
    setup = textwrap.dedent("""
        import sys
        import numpy as np
        import gradate
        from gradate.fgw import FGWConfig

        graphs = [gradate.AttributedGraph.from_edges(
            n, [(k, k + 1) for k in range(n - 1)], features=np.eye(n, 3)) for n in (4, 6)]
        before = set(sys.modules)
    """)
    added = '\nprint(" ".join(sorted(set(sys.modules) - before)))\n'
    return run_fresh(setup + textwrap.dedent(code) + added).split()


class TestImportCost:
    @pytest.mark.parametrize("module", ["gradate", "gradate.cli"])
    def test_import_loads_no_heavy_scipy_package(self, module):
        out = run_fresh(f"""
            import sys
            import {module}
            print(" ".join(sorted(sys.modules)))
        """)
        loaded = set(out.split())
        assert set(EXTENSIONS) <= loaded
        # Not even scipy's own `__init__`: its directory is found without it.
        assert "scipy" not in loaded
        # The pybind11 HiGHS module registers submodules of its own (`_core.cb`).
        heavy = sorted(m for m in loaded if within(m, HEAVY_PACKAGES) and not within(m, EXTENSIONS))
        assert heavy == []

    @pytest.mark.parametrize("module", ["gradate", "gradate.cli"])
    def test_import_adds_nothing_numpy_loads_lazily(self, module):
        # Measured against what `import numpy` loaded: numpy 1.x loads
        # numpy.ma and numpy.random itself, numpy 2 only on first use.
        out = run_fresh(f"""
            import sys
            import numpy
            before = set(sys.modules)
            import {module}
            print(" ".join(sorted(set(sys.modules) - before)))
        """)
        lazy = sorted(m for m in out.split()
                      if m == "scipy" or within(m, ("numpy.ma", "numpy.random")))
        assert lazy == []

    def test_first_solves_import_nothing(self):
        # The compiled scipy modules load with the package, and no solve
        # calls what numpy loads lazily, so a cold solve pays for no import.
        # The barycenter starts from the graph of 4 nodes.
        assert modules_added_by("""
            i, j = np.arange(30.0)[:, None], np.arange(20.0)[None, :]
            cost = (7 * i + 13 * j) % 17 + 0.01 * i * j
            p, q = np.arange(1.0, 31.0), np.arange(1.0, 21.0)
            gradate.solve_exact_ot(cost, p / p.sum(), q / q.sum())
            ref = gradate.fgw_barycenter(graphs, nbar=4, cfg=FGWConfig(alpha=0.5))
            gradate.fgw_distance(ref, graphs[0], FGWConfig(alpha=0.5))
        """) == []

    def test_a_random_barycenter_start_imports_numpy_random_alone(self):
        # No graph has 5 nodes, so the start is drawn from a generator.
        random_start = modules_added_by("""
            gradate.fgw_barycenter(graphs, nbar=5, cfg=FGWConfig(alpha=0.5))
        """)
        assert random_start == modules_added_by("import numpy.random")


class TestScipyInterop:
    def test_scipy_imported_after_gradate_reuses_its_modules(self):
        out = run_fresh("""
            import sys
            import gradate
            import scipy.optimize
            from scipy.spatial.distance import cdist

            assert scipy.optimize.linear_sum_assignment is gradate.ot.linear_sum_assignment
            assert sys.modules["scipy.optimize._highspy._core"] is gradate.ot._highspy
            res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                                         method="highs-ds")
            assert res.status == 0 and res.x.tolist() == [1.0, 0.0]
            assert cdist([[0.0, 0.0]], [[3.0, 4.0]]).tolist() == [[5.0]]
            print("ok")
        """)
        assert out.split() == ["ok"]

    def test_gradate_imported_after_scipy_reuses_scipys_modules(self):
        out = run_fresh("""
            import sys
            import scipy.optimize
            import scipy.spatial.distance
            core = sys.modules["scipy.optimize._highspy._core"]
            import gradate
            assert gradate.ot._highspy is core
            assert gradate.ot._Highs is core._Highs
            assert gradate.ot.linear_sum_assignment is scipy.optimize.linear_sum_assignment
            print("ok")
        """)
        assert out.split() == ["ok"]


class TestLoaderFailure:
    def test_a_missing_module_is_an_import_error(self):
        name = "scipy.optimize._no_such_extension"
        with pytest.raises(ImportError, match=re.escape(scipy.__version__)) as info:
            ot._scipy_extension(name)
        assert name in str(info.value)
        assert info.value.name == name
        assert name not in sys.modules

    def test_a_module_whose_init_raises_is_not_left_registered(self, monkeypatch):
        # A module stays in sys.modules only once it has run, so a later
        # lookup never returns a half-initialized one.
        name = "scipy.optimize._failing_extension"
        monkeypatch.delitem(sys.modules, name, raising=False)  # restored on teardown

        class FailingLoader(ExtensionFileLoader):
            def create_module(self, spec):
                return None  # a plain module object

            def exec_module(self, module):
                assert sys.modules[name] is module
                raise RuntimeError("module init failed")

        spec = ModuleSpec(name, FailingLoader(name, "_failing_extension.so"))
        monkeypatch.setattr(ot, "PathFinder", SimpleNamespace(find_spec=lambda *args: spec))
        with pytest.raises(RuntimeError, match="module init failed"):
            ot._scipy_extension(name)
        assert name not in sys.modules

    @pytest.mark.parametrize("refusal", ["meta_path", "sys.modules"])
    def test_without_scipy_the_import_fails_naming_scipy(self, refusal):
        # A meta-path finder refuses scipy as a missing package is refused;
        # a None entry in sys.modules makes `find_spec("scipy")` return None.
        out = run_fresh(f"""
            import sys

            class RefuseScipy:
                @staticmethod
                def find_spec(name, path=None, target=None):
                    if name == "scipy" or name.startswith("scipy."):
                        raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
                    return None

            if {refusal!r} == "meta_path":
                sys.meta_path.insert(0, RefuseScipy)
            else:
                sys.modules["scipy"] = None
            try:
                import gradate
            except ImportError as e:
                print(type(e).__name__, e.name, "scipy" in str(e))
        """)
        assert out.split() == ["ModuleNotFoundError", "scipy", "True"]

    def test_a_python_module_is_not_loaded_in_its_place(self):
        # scipy/optimize/_linprog.py exists, but it is not a compiled module;
        # running it would import the scipy.optimize package after all.
        out = run_fresh("""
            import sys
            import gradate.ot as ot
            try:
                ot._scipy_extension("scipy.optimize._linprog")
            except ImportError as e:
                print(e.name, "scipy.optimize" in sys.modules)
        """)
        assert out.split() == ["scipy.optimize._linprog", "False"]


def _floor(specifier: str) -> tuple[int, ...]:
    """The version of the `>=` clause of a specifier such as "<2.7,>=1.26.4", as ints."""
    match = re.search(r">=\s*([0-9][0-9.]*)", specifier)
    assert match, f"no >= floor in {specifier!r}"
    return tuple(int(part) for part in match.group(1).rstrip(".").split("."))


class TestDeclaredFloors:
    """pyproject.toml's floors can be installed with the scipy it pins.

    A floor below scipy's own lets pip pick a Python or numpy that the
    pinned scipy refuses, so no install at that floor exists.
    """

    @staticmethod
    def _project() -> dict:
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
            return tomllib.load(f)["project"]

    def test_python_floor_is_not_below_scipys(self):
        scipy_python = importlib.metadata.metadata("scipy")["Requires-Python"]
        assert _floor(self._project()["requires-python"]) >= _floor(scipy_python)

    def test_numpy_floor_is_not_below_scipys(self):
        def numpy_clause(requirements):
            clauses = [r for r in requirements
                       if re.match(r"numpy\b", r) and "extra ==" not in r]
            assert len(clauses) == 1, requirements
            return clauses[0]

        ours = numpy_clause(self._project()["dependencies"])
        scipys = numpy_clause(importlib.metadata.requires("scipy"))
        assert _floor(ours) >= _floor(scipys)
