"""What `import gradate` loads of scipy and numpy, and how it shares scipy's modules.

gradate calls three compiled scipy functions. `gradate.ot` locates their
extension modules when the package is imported, so a scipy that lacks one
fails the import, and loads each without any scipy package `__init__`,
whose imports cost most of a process's start-up, on the first call that
needs it. So a process that solves nothing, such as a warm CLI command,
loads none of them. The package loads none of the modules numpy 2 loads
on first use (numpy.ma, numpy.random) unless a run needs them. Each check
runs in a fresh interpreter, since this one has scipy's packages loaded
already. The declared version floors are checked against what the
installed scipy requires.
"""

import importlib.metadata
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
import tomllib
from importlib.machinery import ExtensionFileLoader, ModuleSpec
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import gradate
import gradate.ot as ot
from gradate import io
from gradate.cli import main

from conftest import random_dataset

EXTENSIONS = (
    "scipy.optimize._lsap",
    "scipy.optimize._highspy._core",
    "scipy.spatial._distance_pybind",
)
LSAP, CORE, DISTANCE = EXTENSIONS
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


# numpy, gradate and four small graphs: path graphs of 4 and 6 nodes with
# one-hot features, whose FGW steps tie, and in `attributed` the same sizes
# with a chord and unequal features, whose FGW steps are all certified
# assignments.
SETUP = textwrap.dedent("""
    import sys
    import numpy as np
    import gradate
    from gradate.fgw import FGWConfig

    graphs = [gradate.AttributedGraph.from_edges(
        n, [(k, k + 1) for k in range(n - 1)], features=np.eye(n, 3)) for n in (4, 6)]
    attributed = [gradate.AttributedGraph.from_edges(
        n, [(k, k + 1) for k in range(n - 1)] + [(0, 2)],
        features=np.sin(np.arange(3.0 * n)).reshape(n, 3)) for n in (4, 6)]
""")
# A 30 x 20 problem with unequal weights: its solve grows a support, so HiGHS runs.
EXACT_PROBLEM = textwrap.dedent("""
    i, j = np.arange(30.0)[:, None], np.arange(20.0)[None, :]
    cost = (7 * i + 13 * j) % 17 + 0.01 * i * j
    p, q = np.arange(1.0, 31.0) / 465, np.arange(1.0, 21.0) / 210
""")
EXACT_SOLVE = EXACT_PROBLEM + "gradate.solve_exact_ot(cost, p, q)\n"
FGW_SOLVES = textwrap.dedent("""
    ref = gradate.fgw_barycenter(attributed, nbar=4, cfg=FGWConfig(alpha=0.5))
    gradate.fgw_distance(ref, attributed[1], FGWConfig(alpha=0.5))
""")


def modules_added_by(*steps: str) -> list[list[str]]:
    """The modules each step loads, run in turn by one fresh interpreter after `SETUP`."""
    code = [SETUP, "before = set(sys.modules)"]
    for step in steps:
        code += [textwrap.dedent(step), textwrap.dedent("""
            print(" ".join(sorted(set(sys.modules) - before)))
            before = set(sys.modules)
        """)]
    return [line.split() for line in run_fresh("\n".join(code)).splitlines()]


class TestImportCost:
    @pytest.mark.parametrize("module", ["gradate", "gradate.cli"])
    def test_import_loads_no_heavy_scipy_package(self, module):
        out = run_fresh(f"""
            import sys
            import {module}
            print(" ".join(sorted(sys.modules)))
        """)
        loaded = set(out.split())
        # The compiled modules are located, not loaded: the first solve loads them.
        assert not set(EXTENSIONS) & loaded
        # Not even scipy's own `__init__`: its directory is found without it.
        assert "scipy" not in loaded
        heavy = sorted(m for m in loaded if within(m, HEAVY_PACKAGES))
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

    def test_first_solves_load_their_solver_modules_alone(self):
        # A first exact solve loads HiGHS and nothing else: no other
        # solver module and nothing numpy loads lazily. The pybind11 HiGHS
        # module registers submodules of its own (`_core.cb`). A first FGW
        # solve of certified steps loads the assignment and cdist modules.
        # The barycenter starts from the graph of 4 nodes.
        exact, fgw = modules_added_by(EXACT_SOLVE, FGW_SOLVES)
        assert CORE in exact and all(within(m, [CORE]) for m in exact)
        assert sorted(fgw) == [LSAP, DISTANCE]
        # FGW alone: its steps run no LP, so HiGHS stays unloaded.
        (fgw_alone,) = modules_added_by(FGW_SOLVES)
        assert sorted(fgw_alone) == [LSAP, DISTANCE]

    def test_a_random_barycenter_start_imports_numpy_random_alone(self):
        # No graph has 5 nodes, so the start is drawn from a generator; its
        # cdist and the barycenter's solves load their solver modules.
        (random_start,) = modules_added_by("""
            gradate.fgw_barycenter(graphs, nbar=5, cfg=FGWConfig(alpha=0.5))
        """)
        (numpy_random,) = modules_added_by("import numpy.random")
        assert sorted(m for m in random_start if not within(m, EXTENSIONS)) == numpy_random
        assert {LSAP, DISTANCE} <= set(random_start)


class TestScipyInterop:
    """After a first solve, gradate and scipy hold the same module objects."""

    def test_scipy_imported_after_gradate_reuses_its_modules(self):
        out = run_fresh(SETUP + EXACT_SOLVE + FGW_SOLVES + textwrap.dedent(f"""
            loaded = {{name: sys.modules[name] for name in {EXTENSIONS!r}}}
            import scipy.optimize
            from scipy.spatial.distance import cdist

            assert all(sys.modules[name] is module for name, module in loaded.items())
            assert scipy.optimize.linear_sum_assignment is gradate.ot._lsap.linear_sum_assignment
            assert sys.modules["{CORE}"]._Highs is gradate.ot._highspy._Highs
            res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                                         method="highs-ds")
            assert res.status == 0 and res.x.tolist() == [1.0, 0.0]
            assert cdist([[0.0, 0.0]], [[3.0, 4.0]]).tolist() == [[5.0]]
            print("ok")
        """))
        assert out.split() == ["ok"]

    def test_gradate_imported_after_scipy_reuses_scipys_modules(self):
        scipy_first = textwrap.dedent(f"""
            import sys
            import scipy.optimize
            import scipy.spatial.distance
            loaded = {{name: sys.modules[name] for name in {EXTENSIONS!r}}}
        """)
        out = run_fresh(scipy_first + SETUP + EXACT_SOLVE + FGW_SOLVES + textwrap.dedent(f"""
            assert all(sys.modules[name] is module for name, module in loaded.items())
            assert gradate.ot._highspy._Highs is loaded["{CORE}"]._Highs
            assert gradate.ot._lsap.linear_sum_assignment is scipy.optimize.linear_sum_assignment
            assert gradate.fgw._distance.cdist_euclidean is loaded["{DISTANCE}"].cdist_euclidean
            print("ok")
        """))
        assert out.split() == ["ok"]


class TestCommandsThatSolveNothing:
    """A warm `select` or `gdd` and every `split` end with no compiled scipy module loaded."""

    @pytest.fixture(scope="class")
    def filled(self, tmp_path_factory):
        """A dataset, its split and a cache that one cold pass of `commands` filled.

        Returns their directory and every file in it after that pass.
        """
        root = tmp_path_factory.mktemp("warm")
        dataset = random_dataset(np.random.default_rng(0), 24)
        io.save_dataset_json(dataset, root / "ds.json")
        assert main(["split", str(root / "ds.json"), "--out", str(root / "split.json")]) == 0
        for argv in self.commands(root).values():
            assert main(argv) == 0
        return root, self.outputs(root)

    @staticmethod
    def commands(root: Path) -> dict:
        common = [str(root / "ds.json"), str(root / "split.json"), "--c", "1",
                  "--cache-dir", str(root / "cache")]
        return {
            "select": ["select", *common, "--method", "gradate", "--tau", "0.2",
                       "--out", str(root / "sel.json")],
            "gdd": ["gdd", *common, "--weights", str(root / "sel.json")],
        }

    @staticmethod
    def outputs(root: Path) -> list:
        return sorted((p.name, p.read_bytes()) for p in root.rglob("*") if p.is_file())

    @staticmethod
    def run_cli(argv: list[str]) -> tuple[int, list[str]]:
        """The exit code of `gradate argv` run fresh, and the compiled modules it left loaded."""
        out = run_fresh(f"""
            import contextlib, io, sys
            from gradate.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main({argv!r})
            print(code, *sorted(set(sys.modules) & set({EXTENSIONS!r})))
        """)
        code, *loaded = out.split()
        return int(code), loaded

    @pytest.mark.parametrize("command", ["select", "gdd"])
    def test_a_warm_command_loads_no_solver_module(self, filled, command):
        root, cold = filled
        assert self.run_cli(self.commands(root)[command]) == (0, [])
        # It reproduced the cold pass: every file, the cache included, is unchanged.
        assert self.outputs(root) == cold

    def test_split_loads_no_solver_module(self, filled, tmp_path):
        root, _ = filled
        argv = ["split", str(root / "ds.json"), "--out", str(tmp_path / "split.json")]
        assert self.run_cli(argv) == (0, [])
        assert (tmp_path / "split.json").read_bytes() == (root / "split.json").read_bytes()


class TestConcurrentFirstSolves:
    def test_two_first_solves_at_once_load_highs_once(self):
        # Creating the module is slowed, so the second thread arrives while
        # the first is inside the load; the lock makes it wait, then reuse it.
        out = run_fresh(SETUP + EXACT_PROBLEM + textwrap.dedent(f"""
            import threading, time
            from importlib.machinery import ExtensionFileLoader

            creates = []
            create = ExtensionFileLoader.create_module

            def slow_create(self, spec):
                if spec.name == "{CORE}":
                    creates.append(threading.get_ident())
                    time.sleep(0.2)
                return create(self, spec)

            ExtensionFileLoader.create_module = slow_create
            barrier, values = threading.Barrier(2), []

            def first_solve():
                barrier.wait()
                values.append(gradate.solve_exact_ot(cost, p, q).value)

            threads = [threading.Thread(target=first_solve) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            core = sys.modules["{CORE}"]
            print(len(creates), len(values), values[0] == values[1],
                  gradate.ot._highspy._Highs is core._Highs)
        """))
        assert out.split() == ["1", "2", "True", "True"]


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

    def test_a_scipy_without_highs_fails_the_import(self, tmp_path):
        # A scipy directory that holds the other two compiled modules but no
        # HiGHS: `import gradate` fails naming it, before any solve runs.
        # Locating reads only file names, so empty files stand in for them.
        (tmp_path / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").touch()
        for name in (LSAP, DISTANCE):
            origin = Path(importlib.util.find_spec(name).origin)
            target = tmp_path.joinpath(*name.split(".")[:-1], origin.name)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.touch()
        out = run_fresh(f"""
            import sys
            sys.path.insert(0, {str(tmp_path)!r})
            try:
                import gradate
            except ImportError as e:
                print(type(e).__name__, e.name, "no compiled module" in str(e),
                      "gradate" in sys.modules, *sorted(set(sys.modules) & set({EXTENSIONS!r})))
        """)
        assert out.split() == ["ImportError", CORE, "True", "False"]


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
