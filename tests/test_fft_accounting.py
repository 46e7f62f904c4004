"""Every transform of a grid function goes through grid.fft_forward and
grid.fft_inverse, where the fft_calls spy and the benchmark's FFT counters
see it.  A direct numpy FFT elsewhere must be on the list below."""
import ast
from pathlib import Path

import pdlab

SRC = Path(pdlab.__file__).parent

# (module, enclosing function) -> why it transforms numpy arrays directly
ALLOWED = {
    # partial transforms: one set of axes of a symbol table, or one term's m_j
    ("symbols.py", "Symbol.spectral_terms"): "m_hat_j of a separable term, over x",
    ("symbols.py", "partial_ft"): "a_hat(xi, eta), over the x-axes of a table",
    ("symbols.py", "partial_ift"): "the inverse of partial_ft",
    # the one transform of kernel rows
    ("symbols.py", "_kernel_rows.transform"): "k(x, z) over the eta-axes of a term or of rows",
    # a circular convolution of two boolean support indicators
    ("operators.py", "_allowed_sumset"): "the spectral support rule's sumsets",
}


def _is_numpy_fft(node: ast.expr) -> bool:
    # np.fft.<name> or numpy.fft.<name>
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "fft"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id in ("np", "numpy")
    )


def _direct_ffts(path: Path) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every numpy FFT call in the file;
    an import of numpy.fft counts as a call at module level."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call) and _is_numpy_fft(child.func):
                found.append((".".join(scope) or "<module>", child.lineno))
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("numpy.fft"):
                found.append((".".join(scope) or "<module>", child.lineno))
            elif isinstance(child, ast.Import) and any(
                a.name.startswith("numpy.fft") for a in child.names
            ):
                found.append((".".join(scope) or "<module>", child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def test_numpy_ffts_outside_grid_are_on_the_list():
    seen = set()
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "grid.py":
            continue
        for where, line in _direct_ffts(path):
            if (path.name, where) in ALLOWED:
                seen.add((path.name, where))
            else:
                stray.append(f"{path.name}:{line} in {where}")
    assert stray == [], "route these through grid.fft_forward / grid.fft_inverse"
    assert seen == set(ALLOWED), f"stale entries: {sorted(set(ALLOWED) - seen)}"


def test_the_walk_finds_each_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy as np\n"
        "import numpy.fft\n"
        "from numpy.fft import ifft\n"
        "class A:\n"
        "    def f(self, x):\n"
        "        def g(y):\n"
        "            return np.fft.fftn(y)\n"
        "        return numpy.fft.ifft(x) + np.abs(x)\n"
    )
    assert _direct_ffts(path) == [("<module>", 2), ("<module>", 3), ("A.f.g", 7), ("A.f", 8)]
