"""Module-boundary guard: no p3family module uses another's private names,
and each module reads every private name it defines.

A name is private when it starts with one underscore (dunders excepted).
The scan parses every module under the package and flags two forms:
``from .other import _name`` (also spelled ``from p3family.other``), and
``other._name`` read through a name bound to another p3family module. A
private top-level name that its module never loads, as a leftover constant
or helper would be, is flagged as unused; a mention in a comment or a
string does not count as a load.

No module imports ``fractions`` or ``decimal``: the library computes in
floats and Python ints.

Only `pearson3`, `specfun` and `mc` call ``gammainc``, ``gammaincc`` or
``xlogy``: every gamma term of a law comes from `pearson3.gamma_term`.

Importing the package, `mc` and `cli` loads none of ``scipy.fft``,
``scipy.stats`` and ``scipy.signal``: every CLI call starts without them,
and the convolution oracle imports ``scipy.fft`` at its first call.

No module passes ``where=`` to a ``scipy.special`` function: with numpy
2.4.6 and scipy 1.17.1, ``gammainc(3.0, u, out=out, where=mask)`` on 1000
points with a random mask aborts the interpreter in malloc, and
``gammaincc``, ``expit`` and ``xlogy`` crash it alike.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import p3family

PACKAGE_DIR = Path(p3family.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _sibling(module: str, level: int):
    """The p3family module an import statement's ``module`` refers to."""
    if level == 1:
        return module
    if level == 0 and module and module.startswith("p3family."):
        return module[len("p3family."):]
    return None


def private_uses(sources: dict) -> list:
    """(module, line, other, name) for each private name of module `other`
    used by a different module; `sources` maps module name to source text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = {name: _top_level_names(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        aliases = {}  # local name -> sibling module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if (node.level, node.module) in ((1, None), (0, "p3family")):
                    for a in node.names:
                        if a.name in defined:
                            aliases[a.asname or a.name] = a.name
                    continue
                other = _sibling(node.module, node.level)
                for a in node.names:
                    if other in defined and other != name and _is_private(a.name) \
                            and a.name in defined[other]:
                        found.append((name, node.lineno, other, a.name))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    other = _sibling(a.name, 0)
                    if other in defined and a.asname:
                        aliases[a.asname] = other
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                other = aliases.get(node.value.id)
                if other is not None and other != name and _is_private(node.attr) \
                        and node.attr in defined[other]:
                    found.append((name, node.lineno, other, node.attr))
    return found


def unused_private_names(sources: dict) -> list:
    """(module, name) for each private top-level name that its own module
    never loads; `sources` maps module name to source text."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(module, name) for name in sorted(_top_level_names(tree))
                  if _is_private(name) and name not in loaded]
    return found


def test_scanner_flags_both_forms():
    sources = {
        "a": "_hidden = 1\ndef _helper():\n    pass\n",
        "b": "from .a import _helper\n",
        "c": "def f():\n    from . import a\n    return a._hidden\n",
        "d": "import p3family.a as pa\nx = pa._hidden\n",
        "e": "from .a import _missing\n",
    }
    assert sorted((m, o, n) for m, _, o, n in private_uses(sources)) == [
        ("b", "a", "_helper"),
        ("c", "a", "_hidden"),
        ("d", "a", "_hidden"),
    ]


def test_no_private_cross_module_names():
    sources = {
        path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    found = private_uses(sources)
    assert not found, "private names used across modules: " + ", ".join(
        f"{m}.py:{line} uses {o}.{n}" for m, line, o, n in found
    )


def test_unused_scanner_counts_only_loads():
    sources = {
        "a": "_LIMIT, _SPARE = 8, 9  # _SPARE\n_doc = '_SPARE'\n"
             "def _helper():\n    return _LIMIT\n\ndef f():\n    return _helper()\n",
        "b": "from .a import f\n_stored = 1\n_stored = f()\n_LIMIT = 2\n",
    }
    assert unused_private_names(sources) == [
        ("a", "_SPARE"), ("a", "_doc"), ("b", "_LIMIT"), ("b", "_stored")]


def test_no_unused_private_names():
    sources = {
        path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    found = unused_private_names(sources)
    assert not found, "private names never loaded: " + ", ".join(
        f"{m}.{n}" for m, n in found)


def _special_calls(text: str):
    """(call node, scipy.special name) for each call in the source `text`
    of a scipy.special function, imported by name or read off the module."""
    tree = ast.parse(text)
    functions, modules = {}, {"scipy.special"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            functions.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules.update(a.asname or a.name for a in node.names if a.name == "special")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names
                           if a.name == "scipy.special" and a.asname)
    for node in ast.walk(tree):
        f = node.func if isinstance(node, ast.Call) else None
        if isinstance(f, ast.Name) and f.id in functions:
            yield node, functions[f.id]
        elif isinstance(f, ast.Attribute) and ast.unparse(f.value) in modules:
            yield node, f.attr


def special_calls_with_where(sources: dict) -> list:
    """(module, line, function) for each call of a scipy.special function,
    imported by name or read off the module, that passes ``where=``;
    `sources` maps module name to source text."""
    return [(module, node.lineno, ast.unparse(node.func))
            for module, text in sources.items() for node, _ in _special_calls(text)
            if any(k.arg == "where" for k in node.keywords)]


def test_where_scanner_flags_each_import_form():
    sources = {
        "a": "from scipy.special import gammainc\ngammainc(1.0, u, out=o, where=m)\n",
        "b": "from scipy import special as _sp\n_sp.expit(u, out=o, where=m)\n",
        "c": "import scipy.special as sc\nsc.xlogy(1.0, u, where=m)\n",
        "d": "import scipy.special\nscipy.special.gammaincc(1.0, u, where=m)\n",
        "e": "import numpy as np\nfrom scipy.special import gammainc\n"
             "np.log(u, out=o, where=m)\ngammainc(1.0, u, out=o)\n",
    }
    assert special_calls_with_where(sources) == [
        ("a", 2, "gammainc"), ("b", 2, "_sp.expit"), ("c", 2, "sc.xlogy"),
        ("d", 2, "scipy.special.gammaincc")]


def test_no_scipy_special_call_passes_where():
    sources = {
        path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    found = special_calls_with_where(sources)
    assert not found, "scipy.special calls with where=: " + ", ".join(
        f"{m}.py:{line} {f}" for m, line, f in found)


# The gamma terms of a law, P, Q and the density, are formed in one kernel,
# `pearson3.gamma_term`. `specfun`'s truncated gamma integrals are not terms
# of a law, and `mc`'s convolution oracle stays independent of the kernel.
GAMMA_FUNCTIONS = {"gammainc", "gammaincc", "xlogy"}
GAMMA_MODULES = {"pearson3", "specfun", "mc"}


def gamma_kernel_calls(sources: dict) -> list:
    """(module, line, function) for each call of a scipy.special function of
    GAMMA_FUNCTIONS in a module outside GAMMA_MODULES; `sources` maps module
    name to source text."""
    return [(module, node.lineno, name)
            for module, text in sources.items() if module not in GAMMA_MODULES
            for node, name in _special_calls(text) if name in GAMMA_FUNCTIONS]


def test_gamma_kernel_scanner_flags_each_import_form():
    sources = {
        "sums": "from scipy.special import gammainc as P, betainc\nP(1.0, u)\nbetainc(1, 2, x)\n",
        "wpt": "from scipy import special as _sp\n_sp.xlogy(1.0, u)\n_sp.expit(u)\n",
        "logp3": "import scipy.special as sc\nsc.gammaincc(1.0, u, out=o)\n",
        "cli": "import scipy.special\nx = scipy.special.gammainc\nscipy.special.xlogy(1, u)\n",
        "pearson3": "from scipy.special import gammainc\ngammainc(1.0, u)\n",
        "mc": "def f(u):\n    from scipy.special import gammainc\n    return gammainc(1.0, u)\n",
    }
    assert gamma_kernel_calls(sources) == [
        ("sums", 2, "gammainc"), ("wpt", 2, "xlogy"), ("logp3", 2, "gammaincc"),
        ("cli", 3, "xlogy")]


def test_only_the_kernel_forms_a_gamma_term():
    sources = {
        path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    found = gamma_kernel_calls(sources)
    assert not found, "gamma terms formed outside pearson3.gamma_term: " + ", ".join(
        f"{m}.py:{line} {f}" for m, line, f in found)


def exact_arithmetic_imports(sources: dict) -> list:
    """(module, line, name) for each import of ``fractions`` or ``decimal``,
    or of a submodule or name from them; `sources` maps module name to
    source text."""
    banned = {"fractions", "decimal"}
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(module, node.lineno, n) for n in names if n.split(".")[0] in banned]
    return found


def test_exact_arithmetic_scanner_flags_each_import_form():
    sources = {
        "a": "from fractions import Fraction\n",
        "b": "import numpy as np\nimport decimal as dec\n",
        "c": "def f():\n    import fractions\n    return fractions.Fraction(1)\n",
        "d": "from decimal import Decimal, localcontext\n",
        "e": "from .decimal import x\nimport numpy.fractions_like\n# import fractions\n",
    }
    assert exact_arithmetic_imports(sources) == [
        ("a", 1, "fractions"), ("b", 2, "decimal"), ("c", 2, "fractions"), ("d", 1, "decimal")]


def test_no_module_imports_fractions_or_decimal():
    sources = {
        path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    found = exact_arithmetic_imports(sources)
    assert not found, "fractions or decimal imported: " + ", ".join(
        f"{m}.py:{line} {n}" for m, line, n in found)


def test_import_loads_no_scipy_fft_stats_or_signal():
    script = ("import sys, p3family, p3family.mc, p3family.cli; print(sorted(m for m in sys.modules"
              " if m.split('.')[:2] in (['scipy', 'fft'], ['scipy', 'stats'], ['scipy', 'signal'])))")
    src = str(PACKAGE_DIR.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path}, timeout=60, check=False)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
