"""Source hygiene: every module-level import in the package is used, every
module-level private name is read somewhere, every public function,
class, method or property is read somewhere or listed as library API, no
module imports scipy, which is a test dependency only, no CLI job loads
hashlib or numpy.polynomial, the quadrature engine names no shape class,
no module but principal imports it, each kernel entry point has one
calling module, only principal and hybrid call the zero-mode search, and
only jacobi_eigh and the leggauss port call an eigensolver.

No linter ships with the package's dependencies, so this parses each module
with the standard library's ast.  __init__.py is left out of the unused
import check: it imports names to re-export them.
"""

import ast
import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "shellbound"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import math\nfrom .errors import A, B\nx = math.pi + A\n")
    assert _unused_imports(tree) == ["line 2: B"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _unused_imports(tree) == []


def _scipy_imports(tree: ast.Module) -> list[str]:
    """Every import of scipy or a scipy submodule, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] == "scipy"]
    return found


def test_the_check_finds_a_lazy_scipy_import():
    tree = ast.parse("import os\ndef f():\n    from scipy import special\n    import scipy.linalg\n")
    assert _scipy_imports(tree) == ["line 3: scipy", "line 4: scipy.linalg"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_module_does_not_import_scipy(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _scipy_imports(tree) == []


# Modules a CLI job must not load: hashlib maps OpenSSL's libcrypto to hash
# one config file, and numpy.polynomial is nine modules for one quadrature
# rule.  Each costs start-up time and resident memory in every job.
HEAVY_MODULES = ("_hashlib", "hashlib", "numpy.polynomial")

FOOTPRINT_JOBS = [
    ["solve", "--config", "single_sphere.json"],
    ["bounds", "--config", "two_spheres.json"],
    ["variational", "--config", "single_sphere_lambda.json"],
    ["hybrid", "--config", "hybrid_far_point.json"],
    ["sweep", "--config", "subcritical.json", "--param", "lambda", "--grid", "0.9,0.999,1.5,2.5"],
]


def test_cli_jobs_load_no_heavy_module(tmp_path):
    configs = SRC.parent.parent / "configs"
    jobs = [
        [cmd, flag, str(configs / name), *rest, "--out", str(tmp_path / f"{cmd}.csv")]
        for cmd, flag, name, *rest in FOOTPRINT_JOBS
    ]
    code = (
        "import json, sys\n"
        "from shellbound.cli import main\n"
        f"codes = [main(job) for job in {jobs!r}]\n"
        f"heavy = {HEAVY_MODULES!r}\n"
        "loaded = sorted(m for m in sys.modules if m in heavy or m.startswith(heavy[-1] + '.'))\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(FOOTPRINT_JOBS)
    assert loaded == []


def _polynomial_uses(tree: ast.Module) -> list[int]:
    """Lines that import numpy.polynomial or read an attribute of that name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", "") or ""]
        else:
            continue
        found += [node.lineno for n in names if "polynomial" in n.split(".")]
    return found


def test_the_check_finds_numpy_polynomial():
    tree = ast.parse(
        "import numpy as np\nfrom numpy.polynomial import legendre\n"
        "x = np.polynomial.legendre.leggauss(4)\npolynomial_order = 2\n"
    )
    assert _polynomial_uses(tree) == [2, 3]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_module_does_not_use_numpy_polynomial(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _polynomial_uses(tree) == []


SHAPE_CLASSES = ("Sphere", "Torus", "Ellipsoid")


def _shape_class_uses(tree: ast.Module) -> list[str]:
    """Every import of a shape class, at any depth, and every attribute
    access by its name (as in geometry.Sphere)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n in SHAPE_CLASSES]
    return found


def test_the_check_finds_a_shape_class():
    tree = ast.parse(
        "from .geometry import Sphere, build_surface\n"
        "from . import geometry\n"
        "def f(mesh):\n"
        "    from .geometry import Ellipsoid\n"
        "    return isinstance(mesh.shape, geometry.Torus)\n"
    )
    assert _shape_class_uses(tree) == ["line 1: Sphere", "line 4: Ellipsoid", "line 5: Torus"]


def test_quadrature_names_no_shape_class():
    # the quadrature engine tells a sphere by its mesh's chart, never by the
    # shape class, so a new shape on an existing chart needs no change there
    name = "_quadrature.py"
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _shape_class_uses(tree) == []


def _quadrature_imports(tree: ast.Module) -> list[int]:
    """Lines that import the _quadrature module or a name from it, at any
    depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("_quadrature" in n.split(".") for n in names):
            found.append(node.lineno)
    return found


def test_the_check_finds_a_quadrature_import():
    tree = ast.parse(
        "from . import _quadrature as quad\n"
        "from .principal import pair_integral\n"
        "def f():\n"
        "    from ._quadrature import double_sum\n"
        "    import shellbound._quadrature\n"
    )
    assert _quadrature_imports(tree) == [1, 4, 5]


@pytest.mark.parametrize(
    "name", sorted(p.name for p in SRC.glob("*.py") if p.name != "principal.py")
)
def test_only_principal_imports_quadrature(name):
    # principal assembles every kernel matrix and pair integral from the
    # engine's sums; the other modules take them from principal
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _quadrature_imports(tree) == []


# Only the engine sums weights times kernel arrays, and makes the kernel
# arrays: every kernel sum, point sums included, takes one path.
KERNEL_CALLERS = {"weighted_kernel_sum": "_quadrature.py", "static_kernel_array": "_quadrature.py"}


def _calls(tree: ast.Module, name: str) -> list[int]:
    """Lines that call name, as a plain name or as an attribute, at any depth."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_the_check_finds_a_kernel_call():
    tree = ast.parse(
        "from . import _quadrature as quad\n"
        "from .kernels import static_kernel_array\n"
        "kernel = static_kernel_array\n"
        "def f(w, d, k):\n"
        "    return quad.weighted_kernel_sum(w, d, k), static_kernel_array(1, 2)\n"
    )
    assert _calls(tree, "weighted_kernel_sum") == [5]
    assert _calls(tree, "static_kernel_array") == [5]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_each_kernel_entry_has_one_calling_module(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    found = {callee: _calls(tree, callee) for callee, owner in KERNEL_CALLERS.items() if name != owner}
    assert found == {callee: [] for callee in found}


# One symmetric eigensolver: jacobi_eigh hands every eigen solve to LAPACK's
# eigh, and the leggauss port, geometry._gauss_legendre, takes its nodes
# from eigvalsh.  Each is the one call of its routine in the package.
EIGEN_CALLERS = {
    "eigh": ("jacobi.py", "jacobi_eigh"),
    "eigvalsh": ("geometry.py", "_gauss_legendre"),
}


def _calling_functions(tree: ast.Module, name: str) -> list:
    """The module-level function around each call of name, None outside one."""
    found = []
    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        found += [owner] * len(_calls(node, name))
    return found


def test_the_check_finds_an_eigen_call():
    tree = ast.parse(
        "import numpy as np\n"
        "w = np.linalg.eigvalsh(np.eye(2))\n"
        "def solve(a):\n"
        "    return np.linalg.eigh(a), eigvalsh(a)\n"
    )
    assert _calling_functions(tree, "eigh") == ["solve"]
    assert _calling_functions(tree, "eigvalsh") == [None, "solve"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_only_jacobi_and_the_leggauss_port_call_an_eigensolver(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    for callee, (module, function) in EIGEN_CALLERS.items():
        assert _calling_functions(tree, callee) == ([function] if name == module else [])


# One zero-mode search: principal._ground_state serves the principal and
# hybrid solves, and the variational zero mode is the principal root, so no
# other module runs a search of its own.
GROUND_STATE_CALLERS = ("principal.py", "hybrid.py")


def test_the_check_finds_a_ground_state_call():
    tree = ast.parse(
        "from . import principal\n"
        "from .principal import _ground_state\n"
        "def solve(phi):\n"
        "    return _ground_state(phi, [], 1e-10), principal._ground_state(phi, [1.0], 1e-10)\n"
    )
    assert _calls(tree, "_ground_state") == [4, 4]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_only_principal_and_hybrid_search_for_a_zero_mode(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert bool(_calls(tree, "_ground_state")) == (name in GROUND_STATE_CALLERS)


def _loads(node: ast.AST):
    """Every name read under node: plain names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _private_names(node: ast.stmt) -> list[str]:
    """Module-level private names a statement defines (dunders excluded)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        return []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _dead_private_names(trees: dict) -> list[str]:
    """Private module-level names read nowhere outside their own definition.

    Names are matched across all modules by spelling, so a name defined in
    two modules counts as used if either module reads it.
    """
    uses = collections.Counter(name for tree in trees.values() for name in _loads(tree))
    dead = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            for name in _private_names(node):
                if uses[name] == sum(n == name for n in _loads(node)):
                    dead.append(f"{module} line {node.lineno}: {name}")
    return dead


def test_the_check_finds_a_dead_private_name():
    trees = {
        "a.py": ast.parse(
            "_K = 1\n_L: int = 2\n__version__ = '1'\n"
            "def _recurse(n):\n    return _recurse(n - 1)\n"
            "class _Unused:\n    pass\n"
            "def _used():\n    return _K\n"
        ),
        "b.py": ast.parse("from . import a\nx = a._used() + a._L\n"),
    }
    assert _dead_private_names(trees) == [
        "a.py line 4: _recurse", "a.py line 6: _Unused",
    ]


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=p.name) for p in SRC.glob("*.py")}
    assert _dead_private_names(trees) == []


# Public functions, classes, methods and properties that no code under src/
# reads, each with the reason it stays.  The check fails on a name missing
# here and on an entry that is gone or that src/ now reads, so the list
# cannot go stale.
UNREAD_PUBLIC_API = {
    "_quadrature.clear_caches": "perfbench's tests read it; ROADMAP item 3 removes it",
    "_quadrature.patch_weight_residual": "the patch-weight check that ROADMAP item 5 calls",
    "bounds.space_form_jacobian": "paper API: the volume element of the comparison step",
    "bounds.deformation_lower_bound": "paper API: the deformation floor on the threshold",
    "bounds.diagonal_lower_envelope": "paper API: the floor on a diagonal entry",
    "bounds.offdiagonal_upper_envelope": "paper API: the cap on an off-diagonal entry",
    "bounds.finiteness_certificate": "paper API: the split finiteness certificate",
    "geometry.hyperbolic_space": "library API: the hyperbolic ambient space",
    "kernels.heat_kernel_upper_bound": "paper API: the off-diagonal heat-kernel upper bound",
    "hybrid.point_krein": "paper API: the subtracted point diagonal",
    "oracles.sphere_pair_integral_exact": "test oracle",
    "oracles.sphere_Z_exact": "test oracle",
    "oracles.sphere_point_potential_exact": "test oracle",
    "oracles.two_sphere_pair_integral_exact": "test oracle",
    "principal.CouplingSpec.from_lambdas": "library API: couplings given as raw strengths",
    "principal.CouplingSpec.from_nu_stars": "library API: couplings given as standalone nu*",
    "principal.coupling_from_energy": "library API: the coupling that binds at an energy",
    "principal.wavefunction": "library API: the ground-state wavefunction",
    "variational.VariationalMatrices.Phi_tilde": "paper API: Phi_tilde = I - K",
    "variational.normalization_Z": "paper API: the trial state's squared norm",
    "variational.stationarity_check": "paper API: finite differences of the trial energy",
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_defs(tree: ast.Module):
    """(name, node) of each public module-level function and class, and
    (Class.name, node) of each public method and property of a
    module-level class, in source order."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _FUNCTIONS) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _unread_public_names(trees: dict) -> list[str]:
    """Public module-level functions and classes, and public methods and
    properties of module-level classes, read nowhere outside their own
    definition, as module.name or module.Class.name in source order.

    A method counts as read wherever an attribute of its name is, on any
    object.  A re-export in __init__.py is an import, not a read, so it
    does not count as a use.
    """
    uses = collections.Counter(name for tree in trees.values() for name in _loads(tree))
    unread = []
    for module, tree in sorted(trees.items()):
        for qualname, node in _public_defs(tree):
            if uses[node.name] == sum(n == node.name for n in _loads(node)):
                unread.append(f"{module.removesuffix('.py')}.{qualname}")
    return unread


def test_the_check_finds_a_dead_public_name():
    trees = {
        "a.py": ast.parse(
            "def used():\n    return 1\n"
            "def unread(n):\n    return unread(n - 1)\n"
            "class Unread:\n    pass\n"
            "def _private():\n    return used()\n"
            "class Used:\n"
            "    def __init__(self):\n        self.read()\n"
            "    def read(self):\n        return 1\n"
            "    def dead(self):\n        return self.dead()\n"
            "    @property\n    def prop(self):\n        return 2\n"
            "    def _hidden(self):\n        return 3\n"
        ),
        "b.py": ast.parse("from .a import unread\nfrom . import a\nx = a._private() + a.Used()\n"),
    }
    assert _unread_public_names(trees) == [
        "a.unread", "a.Unread", "a.Used.dead", "a.Used.prop",
    ]


def test_no_dead_public_names():
    trees = {p.name: ast.parse(p.read_text(), filename=p.name) for p in SRC.glob("*.py")}
    unread = _unread_public_names(trees)
    assert [name for name in unread if name not in UNREAD_PUBLIC_API] == []
    assert [name for name in UNREAD_PUBLIC_API if name not in unread] == []


# Only the quadrature engine turns a distance moment into a nu-derivative:
# these functions take P and its nu-derivatives as the kernel sums return
# them, so none of them reads the static kernel's decay rate or kappa_f.
DERIVATIVE_READERS = {
    "principal.py": ("_phi_arrays",),
    "bounds.py": ("gersgorin_energy_bound",),
    "variational.py": ("assemble_variational", "solve_variational"),
}
RATE_NAMES = ("kappa_factor", "_decay_rate")


def _rate_reads(tree: ast.Module, functions) -> list[str]:
    """Every name or attribute in RATE_NAMES under the named module-level
    functions, nested functions included, as "function line n: name"."""
    found = []
    for node in tree.body:
        if isinstance(node, _FUNCTIONS) and node.name in functions:
            found += [
                (sub.lineno, f"{node.name} line {sub.lineno}: {name}")
                for sub in ast.walk(node)
                for name in [getattr(sub, "id", None) or getattr(sub, "attr", None)]
                if name in RATE_NAMES
            ]
    return [text for _, text in sorted(found)]


def test_the_check_finds_a_rate_read():
    tree = ast.parse(
        "def f(constants, space, nu):\n"
        "    def slope(x):\n"
        "        return -constants.kappa_factor * x\n"
        "    return slope(nu), _decay_rate(space, constants, nu)\n"
        "def g(constants):\n"
        "    return constants.kappa_factor\n"
    )
    assert _rate_reads(tree, ("f",)) == ["f line 3: kappa_factor", "f line 4: _decay_rate"]


@pytest.mark.parametrize("name", sorted(DERIVATIVE_READERS))
def test_derivative_readers_take_the_sums_derivatives(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    functions = DERIVATIVE_READERS[name]
    defined = {node.name for node in tree.body if isinstance(node, _FUNCTIONS)}
    assert set(functions) <= defined
    assert _rate_reads(tree, functions) == []
