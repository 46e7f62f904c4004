"""The package namespace: __all__ names exactly what `import pdlab` exports,
and each of those names is reached from the command line."""
import ast
import inspect
from pathlib import Path

import pdlab

SRC = Path(pdlab.__file__).parent

# public names no subcommand, runner or selftest gate reaches, and why they stay
UNREACHED = {
    "write_pdsy": "writes the table:file= format that read_pdsy reads",
    "lp_block_moduli": "the public view of the block pass",
    "kernel": "the dense oracle that the spatial rule's streamed kernel rows are tested against",
}


def test_all_lists_every_public_name_once():
    public = {
        name for name, obj in vars(pdlab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert len(pdlab.__all__) == len(set(pdlab.__all__))
    assert set(pdlab.__all__) == public | {"__version__"}


def _definitions(src: Path) -> dict[str, list[ast.stmt]]:
    """Each module-level name bound by a def, a class or an assignment in
    the package's modules, with the statements that bind it."""
    defs: dict[str, list[ast.stmt]] = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":  # re-exports only
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    return defs


def _mentions(node: ast.AST) -> set[str]:
    """Every name, attribute and identifier-like string in a statement: a
    string counts, since `experiment` looks its runners up by name."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def reached_from(root: str, src: Path = SRC) -> set[str]:
    """The module-level names the statements binding `root` mention, and so
    on.  Names stand for every binding of that name in any module, and a
    class for all its methods: the walk may find too much, never too little."""
    defs = _definitions(src)
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in defs[name]:
            todo.extend(_mentions(node) - seen)
    return seen


def test_every_public_name_is_reached_from_the_command_line():
    reached = reached_from("main")
    assert "cmd_selftest" in reached and "run_sigma_estimate" in reached  # gates, runners
    unreached = sorted(n for n in pdlab.__all__ if n not in reached and n != "__version__")
    # a name here is reached only by tests: remove it, or list it with a reason
    assert unreached == sorted(UNREACHED), f"reached only by tests: {unreached}"


def test_the_walk_follows_names_attributes_and_strings(tmp_path):
    (tmp_path / "a.py").write_text(
        "RUN = {'x': 'runner'}\n"
        "def main():\n"
        "    return helper() + mod.attr_target\n"
        "def helper():\n"
        "    return RUN\n"
    )
    (tmp_path / "b.py").write_text(
        "def runner(): pass\n"
        "def attr_target(): pass\n"
        "def orphan(): main()\n"
    )
    assert reached_from("main", tmp_path) == {"main", "helper", "RUN", "runner", "attr_target"}


# module-level size constants that are no byte budget, and why; every byte
# limit reads grid.MEMORY_BUDGET
NOT_BYTE_BUDGETS = {
    "DIRECT_APPLY_GUARD": "bounds the reference apply's O(N^{2n}) work, not its bytes",
    "_QUAD_CHUNK": "radii per quadrature pass: a 1.5 MiB cache tile, not a budget",
    "DERIVATIVE_BUDGET": "limits a difference order, not memory",
    "POOL_GUARD": "points of work per task below which pmap runs inline: work, not bytes",
}


def size_constants(src: Path = SRC) -> set[str]:
    """The module-level names ending in _GUARD, _KEYS, _CHUNK or _BUDGET, and
    each `1 << k` with k >= 16 outside MEMORY_BUDGET's own definition."""
    found = {n for n in _definitions(src) if n.endswith(("_GUARD", "_KEYS", "_CHUNK", "_BUDGET"))}
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.Assign) and "MEMORY_BUDGET" in _mentions(stmt.targets[0]):
                continue
            for n in ast.walk(stmt):
                if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
                        and isinstance(n.left, ast.Constant) and n.left.value == 1
                        and isinstance(n.right, ast.Constant) and n.right.value >= 16):
                    found.add(f"{path.name}:{n.lineno}: 1 << {n.right.value}")
    return found


def test_one_memory_budget():
    assert size_constants() == {"MEMORY_BUDGET", *NOT_BYTE_BUDGETS}


def test_the_budget_walk_finds_suffixes_and_shifts(tmp_path):
    (tmp_path / "a.py").write_text(
        "MEMORY_BUDGET = 1 << 26\n"
        "TABLE_GUARD = 4096\n"
        "CACHE_KEYS = 8\n"
        "def f(n):\n"
        "    local_CHUNK = 1 << 30\n"
        "    return max(1, (1 << 21) // n) + (1 << 15)\n"
    )
    assert size_constants(tmp_path) == {"MEMORY_BUDGET", "TABLE_GUARD", "CACHE_KEYS",
                                        "a.py:5: 1 << 30", "a.py:6: 1 << 21"}


# defaulted parameters of public functions that no call in the package sets,
# and why each stays a parameter; every other fixed choice is a constant
UNVARIED = {
    "cli.main(argv)": "None reads sys.argv, for the console script; tests pass argv",
    "operators.support_rule_check(tau)": "cmd_support_rule passes --tau through the alias `check`",
    "operators.spectral_support_rule_check(tau)": "cmd_support_rule passes --tau through `check`",
    "pointwise.factorization_check(p)": "tests set R to put u's spectrum off chi's plateau or on "
                                        "its edge; the CLI takes default_maximal_params",
    "spaces.lp_block_moduli(j_max)": "the public view of the block pass: tests read blocks past "
                                     "the closing shell and its refusal below it",
    "spaces.summation_lemma_check(b)": "a test seam: tests pass sequences the random corpus "
                                       "never draws (a delta, zeros)",
}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(position in a call, name) of each parameter with a default; a
    keyword-only one has no position, and a method's calls skip self."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    out = [(i - method, a.arg) for i, a in enumerate(pos) if i >= first]
    return out + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if d is not None]


def unvaried_defaults(src: Path = SRC) -> set[str]:
    """"module.function(param)" for each defaulted parameter of a public
    function, public method or constructor in the package that no call in
    the package passes, by position or by keyword.  A call is matched by its
    last name (a constructor by its class's), so names stand for every
    definition of that name; a call with *args or **kwargs passes every
    parameter.  run_* runners and cmd_* handlers are exempt: their
    parameters are config keys and CLI flags."""
    defs, passed = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith(("_", "run_", "cmd_")):
                defs.append((node.name, f"{path.stem}.{node.name}", _defaulted(node, False)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs += [(node.name if m.name == "__init__" else m.name,
                          f"{path.stem}.{node.name}.{m.name}", _defaulted(m, True))
                         for m in node.body if isinstance(m, ast.FunctionDef)
                         and (m.name == "__init__" or not m.name.startswith("_"))]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                got = passed.setdefault(name, set())
                got.update(range(len(call.args)), (k.arg for k in call.keywords))
                if any(isinstance(a, ast.Starred) for a in call.args) or None in got:
                    got.add("*")
    return {f"{where}({param})" for name, where, params in defs for i, param in params
            if not {"*", i, param} & passed.get(name, set())}


def test_every_unvaried_default_is_listed_with_a_reason():
    # a default no caller changes is a constant: make it one, or list it here
    assert unvaried_defaults() == set(UNVARIED)


def test_the_unvaried_walk_counts_positions_keywords_and_stars(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, k=1, m=2, *, w=3, z=4):\n"
        "    return g() + h(1) + C(0) + C(0).meth()\n"
        "def g(a=1, b=2): pass\n"
        "def h(*args, **kw): f(0, 5, w=6)\n"
        "def run_x(flag=1): pass\n"
        "def _private(y=1): pass\n"
        "class C:\n"
        "    def __init__(self, c=1, d=2): pass\n"
        "    def meth(self, e=1): pass\n"
        "    def _hidden(self, q=1): pass\n"
        "def spread(args): g(*args)\n"
    )
    assert unvaried_defaults(tmp_path) == {"a.f(m)", "a.f(z)", "a.C.__init__(d)", "a.C.meth(e)"}


# sorts and dedups of the lattice's float radii that stay, and why; every
# other site reads the integer classes of grid.radius_classes
RADIUS_SORTS = {
    "ChingSymbol.shift_terms": "dedups 2^-j|eta| across levels, not the radii of one level: a "
                               "per-level class form was bit-identical but took 27 -> 45 ms at "
                               "1-d 2^18",
}
SORTS = {"argsort", "sort", "unique", "on_distinct"}


def _functions(tree: ast.Module):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef))


def _reads_radius(node: ast.AST, bound: set[str]) -> bool:
    return any(isinstance(n, ast.Name) and n.id in bound
               or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "freq_radius" for n in ast.walk(node))


def radius_sorts(src: Path = SRC) -> set[str]:
    """The functions in the package that call argsort, sort, unique or
    on_distinct on freq_radius() or on a name bound to it (or to such a
    name, and so on) inside the same function."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text(), filename=str(path))):
            assigns = [n for n in ast.walk(fn) if isinstance(n, ast.Assign)]
            bound, grew = set(), True
            while grew:
                new = {t.id for a in assigns if _reads_radius(a.value, bound)
                       for target in a.targets for t in ast.walk(target)
                       if isinstance(t, ast.Name)} - bound
                bound, grew = bound | new, bool(new)
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                callee = getattr(call.func, "attr", getattr(call.func, "id", None))
                if callee in SORTS and _reads_radius(call, bound):
                    found.add(name)
    return found


def test_no_float_radius_sort_outside_its_list():
    # a lattice radius is the root of an integer: read grid.radius_classes,
    # or list the site here with a reason
    assert radius_sorts() == set(RADIUS_SORTS)


def test_the_radius_walk_follows_bound_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "def direct(spec):\n"
        "    return np.argsort(spec.freq_radius().ravel())\n"
        "def bound(spec):\n"
        "    rad = spec.freq_radius()\n"
        "    flat = rad.reshape(-1)\n"
        "    return on_distinct(f, [flat[i] for i in range(3)])\n"
        "class C:\n"
        "    def meth(self, spec):\n"
        "        return spec.freq_radius().argsort()\n"
        "def spatial(x):\n"
        "    rad = np.abs(x)\n"
        "    return np.argsort(rad)\n"
        "def classes(spec):\n"
        "    return np.argsort(radius_classes(spec)[0]) + spec.freq_radius()\n"
    )
    assert radius_sorts(tmp_path) == {"direct", "bound", "C.meth"}
