"""Source hygiene: every module-level import in the package is used, every
module-level private name is read somewhere, every public function,
class, method or property is read somewhere or listed as library API, no
module imports scipy, which is a test dependency only, no CLI job loads
hashlib or numpy.polynomial, the quadrature engine names no shape class,
no module but principal imports it, each kernel entry point has one
calling module, only principal and hybrid call the zero-mode search,
only jacobi_eigh calls an eigensolver, only _quadrature._pair_distances
forms the node differences of two point sets, only the form and pair
geometry builds pick orbit rows, only _quadrature reads a geometry's
arrays or its moments, every keyword default
is set by some caller in the package or listed as API, and no size is
compared with 1 outside a listed function.

No linter ships with the package's dependencies, so this parses each module
with the standard library's ast.  __init__.py is left out of the unused
import check: it imports names to re-export them.
"""

import ast
import collections
import json
import math
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


# One module calls an eigensolver: jacobi_eigh hands every eigen solve to
# LAPACK's eigh, and jacobi._gauss_rule, every Gauss rule's builder, takes
# its nodes from LAPACK's eigvalsh, which maps no eigenvector workspace.
EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")
EIGEN_CALLERS = {
    ("jacobi.py", "eigh"): ["jacobi_eigh"],
    ("jacobi.py", "eigvalsh"): ["_gauss_rule"],
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
    for callee in EIGENSOLVERS:
        assert _calling_functions(tree, callee) == EIGEN_CALLERS.get((name, callee), [])


# One helper forms the node differences of two point sets, each outer node
# against every inner one: _quadrature._pair_distances, which takes them a
# block of outer rows at a time, so that no pair build holds all of them.
PAIR_DIFFERENCE = ("_quadrature.py", "_pair_distances")


def _new_axis(node: ast.AST) -> bool:
    """Whether node is an array indexed with a new axis: None, or newaxis
    bare or as an attribute (np.newaxis)."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(
        (isinstance(i, ast.Constant) and i.value is None)
        or "newaxis" in (getattr(i, "id", None), getattr(i, "attr", None))
        for i in index
    )


def _subtract_outer(func: ast.AST) -> bool:
    """Whether func is subtract.outer, bare or as an attribute."""
    inner = getattr(func, "value", None)
    return getattr(func, "attr", None) == "outer" and "subtract" in (
        getattr(inner, "id", None), getattr(inner, "attr", None)
    )


def _pairwise_differences(tree: ast.Module) -> list:
    """The module-level function around each pairwise difference: a
    subtract.outer call, or a subtraction, by operator or by a subtract
    call, of two operands that both gain a new axis, as in
    a[:, None, :] - b[None, :, :]; None outside a function."""
    found = []
    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub):
                operands = [sub.left, sub.right]
            elif isinstance(sub, ast.Call) and _subtract_outer(sub.func):
                found.append(owner)
                continue
            elif isinstance(sub, ast.Call) and "subtract" in (
                getattr(sub.func, "id", None), getattr(sub.func, "attr", None)
            ):
                operands = sub.args[:2]
            else:
                continue
            if len(operands) == 2 and all(map(_new_axis, operands)):
                found.append(owner)
    return found


def test_the_check_finds_a_pairwise_difference():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import newaxis, subtract\n"
        "d = a[:, None, :] - b[None, :, :]\n"
        "def blocked(a, b, o, c):\n"
        "    return np.subtract(a[o : o + 2, None], b[None], out=c), a[:, None] + b[None]\n"
        "def one_sided(y, nodes):\n"
        "    return y - nodes[:, None, :], y[:, None] - nodes, y[0] - nodes[1]\n"
        "def named_axis(a, b):\n"
        "    return a[:, np.newaxis] - b[np.newaxis], a[:, newaxis, :] - b[newaxis]\n"
        "def outer(a, b):\n"
        "    return np.subtract.outer(a, b), subtract.outer(a, b), np.add.outer(a, b)\n"
        "def half_named(y, nodes):\n"
        "    return y[:, np.newaxis] - nodes, y.outer(nodes)\n"
    )
    assert _pairwise_differences(tree) == [
        None, "blocked", "named_axis", "named_axis", "outer", "outer"
    ]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_one_helper_forms_pairwise_node_differences(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    module, function = PAIR_DIFFERENCE
    assert _pairwise_differences(tree) == ([function] if name == module else [])


# One rule picks outer rows: the orbit rule, which the self-integral's
# form geometry and the pair build call once each, every pair's frame and
# group chosen before that one call.
ORBIT_ROW_CALLERS = ("_quadrature.py", ["_form_geometry", "_pair_geometry"])


def test_the_check_finds_an_orbit_row_call():
    tree = ast.parse(
        "from . import _quadrature as quad\n"
        "rows = quad._orbit_rows(form, form.weights)\n"
        "def _ring_pair(a, b):\n"
        "    return _orbit_rows(a.form, a.form.weights)\n"
        "def _pair_geometry(a, b):\n"
        "    return _orbit_rows(a.form, a.weights, (1, 2)), orbit_rows(a)\n"
    )
    assert _calling_functions(tree, "_orbit_rows") == [None, "_ring_pair", "_pair_geometry"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_only_the_form_and_pair_builds_pick_orbit_rows(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    module, functions = ORBIT_ROW_CALLERS
    assert _calling_functions(tree, "_orbit_rows") == (functions if name == module else [])


# One zero-mode search: principal._ground_state serves the principal and
# hybrid solves, and the variational zero mode is the principal root, so no
# other module runs a search of its own.
GROUND_STATE_CALLERS = ("principal.py", "hybrid.py")


def test_the_check_finds_a_ground_state_call():
    tree = ast.parse(
        "from . import principal\n"
        "from .principal import _ground_state\n"
        "def solve(phi):\n"
        "    return _ground_state(phi, []), principal._ground_state(phi, [1.0])\n"
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


def _name_reads(node: ast.AST, names) -> list[tuple[int, str]]:
    """(line, name) of every name or attribute in names at any depth under node."""
    return [
        (sub.lineno, name)
        for sub in ast.walk(node)
        for name in [getattr(sub, "id", None) or getattr(sub, "attr", None)]
        if name in names
    ]


def _rate_reads(tree: ast.Module, functions) -> list[str]:
    """Every name or attribute in RATE_NAMES under the named module-level
    functions, nested functions included, as "function line n: name"."""
    found = []
    for node in tree.body:
        if isinstance(node, _FUNCTIONS) and node.name in functions:
            found += [
                (line, f"{node.name} line {line}: {name}")
                for line, name in _name_reads(node, RATE_NAMES)
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


# Nor does any module but _quadrature form P from a geometry's arrays or
# its moments: P(0), the threshold of a lambda-form search, comes from
# double_sum like every other P, so no caller rebuilds it from (d, w).  A
# form's Gauss rule (_rule) is read outside only for the lower bound of
# principal._gauss_level.
GEOMETRY_NAMES = (
    "_form_geometry", "_diag_geometry", "_pair_geometry", "_point_geometry", "_geometry",
    "_patch_rows", "_surface_moments",
    "_blocked_dots", "_nu_derivatives",
)


def test_the_check_finds_a_geometry_read():
    tree = ast.parse(
        "from . import _quadrature as quad\n"
        "from ._quadrature import _surface_moments\n"
        "def threshold(mesh, pref):\n"
        "    d, w = quad._diag_geometry(mesh)\n"
        "    return _surface_moments(mesh, mesh, 0, 1, 0.0, 0)[0], w @ (1.0 / d)\n"
    )
    assert _name_reads(tree, GEOMETRY_NAMES) == [(4, "_diag_geometry"), (5, "_surface_moments")]


@pytest.mark.parametrize("name", sorted(m for m in MODULES if m != "_quadrature.py"))
def test_only_quadrature_reads_geometry_and_its_moments(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _name_reads(tree, GEOMETRY_NAMES) == []


# Keyword defaults that no call under src/ sets, each with the reason it
# stays.  Any other such default is a knob with one value in use, which
# belongs in the code as a constant.  As with UNREAD_PUBLIC_API, an entry
# that is gone or that src/ now sets fails the check too.
UNSET_DEFAULTS = {
    "cli.main(argv)": "console entry: None reads sys.argv, tests pass a list",
    "bounds.offdiagonal_upper_envelope(V_M)": "paper API: infinite volume drops the volume term",
    "oracles.two_sphere_pair_integral_exact(constants)": "test oracle at the default constants",
}


def _keyword_defaults(tree: ast.Module, module: str) -> list[tuple]:
    """(qualified name, name, position or None, parameter) of each parameter
    with a default, in functions and methods at any depth.  The position is
    the one a call's positional arguments fill, self left out, and None for
    a keyword-only parameter."""
    found = []

    def visit(node, prefix, in_class):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, _FUNCTIONS):
                qual = f"{prefix}.{sub.name}"
                a = sub.args
                positional = a.posonlyargs + a.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                first = len(positional) - len(a.defaults)
                found.extend(
                    (qual, sub.name, i - (in_class and not static), arg.arg)
                    for i, arg in enumerate(positional[first:], first)
                )
                found.extend(
                    (qual, sub.name, None, arg.arg)
                    for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                    if default is not None
                )
                visit(sub, qual, False)
            else:
                inner = f"{prefix}.{sub.name}" if isinstance(sub, ast.ClassDef) else prefix
                visit(sub, inner, isinstance(sub, ast.ClassDef) or in_class)

    visit(tree, module, False)
    return found


def _unset_defaults(trees: dict) -> list[str]:
    """Each parameter with a default that no call sets, as
    "module.function(parameter)" in source order.

    Calls are matched to definitions by spelling, as a plain name or an
    attribute.  A call sets a parameter by its keyword or its position;
    one with *args sets every positional parameter, one with **kwargs
    every parameter.
    """
    calls = collections.defaultdict(list)  # name -> [(positional count, keywords)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {k.arg for k in node.keywords}  # None for **kwargs
                calls[name].append((math.inf if starred else len(node.args), keywords))
    unset = []
    for module, tree in sorted(trees.items()):
        for qual, name, position, param in _keyword_defaults(tree, module.removesuffix(".py")):
            if not any(
                (position is not None and position < count) or param in keywords or None in keywords
                for count, keywords in calls[name]
            ):
                unset.append(f"{qual}({param})")
    return unset


def test_the_check_finds_an_unset_default():
    trees = {
        "a.py": ast.parse(
            "def f(a, b=1, *, c=2, d=3):\n    return a\n"
            "def g(x=0, y=1):\n    return x\n"
            "def h(x=0):\n    def inner(t=1):\n        return t\n    return inner()\n"
            "class K:\n"
            "    def m(self, y=1, z=2):\n        return y\n"
            "    @staticmethod\n    def s(y=1):\n        return y\n"
        ),
        "b.py": ast.parse(
            "from .a import K, f, g, h\n"
            "f(1, 2, c=3)\ng(*[1])\nK().m(5)\nK.s(1)\nh(**{})\n"
        ),
    }
    assert _unset_defaults(trees) == ["a.f(d)", "a.h.inner(t)", "a.K.m(z)"]


def test_every_keyword_default_is_set_or_listed():
    trees = {p.name: ast.parse(p.read_text(), filename=p.name) for p in SRC.glob("*.py")}
    unset = _unset_defaults(trees)
    assert [name for name in unset if name not in UNSET_DEFAULTS] == []
    assert [name for name in UNSET_DEFAULTS if name not in unset] == []


# Comparisons of a size with 1, each with the reason it stays.  Any other
# is a size-one shortcut: a second path beside the general code for a
# result the general code gives.  As with UNSET_DEFAULTS, an entry that is
# gone fails the check too.
SIZE_ONE_COMPARISONS = {
    "cli.cmd_hybrid": "perturbation rows exist for one shell only",
    "hybrid.perturbative_shift": "the second-order shift is defined for one shell and one point",
}


def _is_size(node: ast.AST, names) -> bool:
    """Whether node is a size: len(...), x.size, x.shape[...], or one of
    names, those its function assigns a size to."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "len"
    if isinstance(node, ast.Attribute):
        return node.attr == "size"
    if isinstance(node, ast.Subscript):
        return getattr(node.value, "attr", None) == "shape"
    return isinstance(node, ast.Name) and node.id in names


def _is_one(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 1


def _size_one_comparisons(tree: ast.Module, module: str) -> list[str]:
    """The module-level function or method around each comparison, by any
    operator, of a size with the number 1, as "module.function" or
    "module.Class.method", and "module" outside one."""
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, _FUNCTIONS)]
            owners += [(f"{module}.{node.name}.{m.name}", m) for m in methods]
        else:
            owners.append((f"{module}.{node.name}" if isinstance(node, _FUNCTIONS) else module, node))
    found = []
    for owner, node in owners:
        names = {
            t.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Assign) and _is_size(sub.value, ())
            for t in sub.targets
            if isinstance(t, ast.Name)
        }
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare):
                operands = [sub.left, *sub.comparators]
                found += [
                    owner
                    for a, b in zip(operands, operands[1:])
                    if (_is_one(a) and _is_size(b, names))
                    or (_is_one(b) and _is_size(a, names))
                ]
    return found


def test_the_check_finds_a_size_one_comparison():
    tree = ast.parse(
        "ONE = len(x) == 1\n"
        "def f(a, b):\n"
        "    n = len(a)\n"
        "    if n == 1:\n"
        "        return a\n"
        "    if 1 != b.size or 2 < a.shape[0] > 1:\n"
        "        return b\n"
        "    return n == 2, b.order == 1, len(a) == True, a.size == 1.5\n"
        "class K:\n"
        "    def m(self, a):\n"
        "        def inner():\n"
        "            return a.size <= 1.0\n"
        "        return inner\n"
    )
    assert _size_one_comparisons(tree, "mod") == ["mod", "mod.f", "mod.f", "mod.f", "mod.K.m"]


def test_no_size_one_shortcuts():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _size_one_comparisons(ast.parse(path.read_text(), filename=path.name), path.stem)
    assert [owner for owner in found if owner not in SIZE_ONE_COMPARISONS] == []
    assert [owner for owner in SIZE_ONE_COMPARISONS if owner not in found] == []
