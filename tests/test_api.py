import ast
import importlib
import pkgutil
import re
from pathlib import Path

import filtra

README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_all_is_sorted_unique_and_resolves():
    names = filtra.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(filtra, name)] == []


def _library_tour_rows() -> list[str]:
    text = README.read_text()
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("|")]


def _tour_names() -> set[str]:
    """The leading identifier of each backticked span in the library tour,
    without call arguments or `module.` prefixes; `*` patterns are skipped."""
    names = set()
    for row in _library_tour_rows():
        for span in re.findall(r"`([^`]+)`", row):
            match = re.match(r"[A-Za-z_][A-Za-z0-9_.]*", span)
            if "*" not in span and match is not None:
                names.add(match.group().rsplit(".", 1)[-1])
    return names


def _tour_identifiers() -> set[str]:
    """The lower-case names with an underscore among `_tour_names`."""
    return {name for name in _tour_names() if "_" in name and name.islower()}


def test_library_tour_names_resolve():
    modules = [filtra] + [
        importlib.import_module(f"filtra.{info.name}") for info in pkgutil.iter_modules(filtra.__path__)
    ]
    names = _tour_identifiers()
    assert {"filter_transform", "sample_plane", "steerable_kernel", "read_filter_csv"} <= names
    assert [name for name in sorted(names) if not any(hasattr(m, name) for m in modules)] == []


def test_library_tour_names_every_public_name():
    names = _tour_names()
    assert [name for name in filtra.__all__ if name not in names] == []


def _filtra_chain(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The dotted name of an attribute chain rooted at `filtra` or at a local
    alias of one of its attributes, with the alias expanded; else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not parts or not isinstance(node, ast.Name):
        return None
    root = "filtra" if node.id == "filtra" else aliases.get(node.id)
    return ".".join([root, *reversed(parts)]) if root else None


def _resolve(chain: str) -> object:
    obj = filtra
    for part in chain.split(".")[1:]:
        if not hasattr(obj, part):
            # a submodule the package does not import itself, e.g. filtra.cli
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def test_benchmark_entry_points_resolve():
    """Every filtra name the benchmark workloads reach, directly or through
    a local alias such as `features = filtra.features`, still exists."""
    tree = ast.parse(WORKLOADS.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            chain = _filtra_chain(node.value, {})
            if chain:
                aliases[node.targets[0].id] = chain
    chains = {chain for node in ast.walk(tree) if (chain := _filtra_chain(node, aliases))}
    assert {"features", "harness"} <= aliases.keys()
    assert {
        "filtra.features.conv2d",
        "filtra.features.act_on_feature",
        "filtra.harness.check_kernel_equivariance",
        "filtra.harness.is_exact_element",
        "filtra.kernels.trivial_to_regular_dihedral",
        "filtra.kernels.regular_to_regular_dihedral",
        "filtra.cli.main",
    } <= chains
    unresolved = []
    for chain in sorted(chains):
        try:
            _resolve(chain)
        except (AttributeError, ImportError):
            unresolved.append(chain)
    assert unresolved == []


def test_dihedral_twins_live_in_kernels_only():
    # the benchmark's forward stack reaches them as filtra.kernels.<name>
    for name in ("trivial_to_regular_dihedral", "regular_to_regular_dihedral"):
        assert name not in filtra.__all__ and not hasattr(filtra, name)
        assert callable(_resolve(f"filtra.kernels.{name}"))


def test_every_module_constant_is_read_in_src():
    """Each module-level UPPER_CASE constant in src/filtra is read somewhere
    in src besides its own assignment: a constant nothing reads is a knob
    that changes nothing."""
    src = Path(filtra.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    constants = set()
    for tree in trees:
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    constants.add(target.id)
    reads = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert {"KERNEL_TOL", "MODES", "TAU"} <= constants
    assert sorted(constants - reads) == []


def test_every_parameter_default_is_set_by_some_caller():
    """Each defaulted parameter of a function in src/filtra is passed, by
    position or by keyword, in some call by that function's name in src,
    tests, demos or the benchmark: a default no caller overrides is a
    parameter that changes nothing."""
    calls: dict[str, list[ast.Call]] = {}
    for path in (path for folder in ("src", "tests", "demos", "perfbench") for path in (README.parent / folder).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node.func), []).append(node)

    def sets(call: ast.Call, position: int | None, param: str) -> bool:
        if any(keyword.arg in (param, None) for keyword in call.keywords):
            return True
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        return position is not None and (len(call.args) > position or starred)

    src = Path(filtra.__file__).resolve().parent
    checked, unset = set(), []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            # a method's self is passed by the attribute access, not in the call
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first_default = len(positional) - len(fn.args.defaults)
            defaulted = [(i - bound, arg.arg) for i, arg in enumerate(positional) if i >= first_default]
            defaulted += [(None, arg.arg) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for position, param in defaulted:
                checked.add(f"{path.stem}.{fn.name}({param})")
                if not any(sets(call, position, param) for call in calls.get(fn.name, [])):
                    unset.append(f"{path.stem}.{fn.name}({param})")
    assert {"cli._naming(errors)", "cli.main(argv)", "kernels.steerable_kernel(mode)"} <= checked
    assert unset == []


def _sites(node: ast.AST, where: str, hit) -> list[str]:
    """The dotted enclosing def, class or module-level assignment of every
    node under node for which hit(node) is true."""
    sites = []
    for child in ast.iter_child_nodes(node):
        here = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            here = f"{where}.{child.name}"
        elif isinstance(node, ast.Module) and isinstance(child, ast.Assign):
            here = f"{where}.{'='.join(ast.unparse(target) for target in child.targets)}"
        if hit(child):
            sites.append(here)
        sites += _sites(child, here, hit)
    return sites


def _name(node: ast.AST) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _src_sites(hit) -> set[str]:
    src = Path(filtra.__file__).resolve().parent
    return {site for path in sorted(src.glob("*.py")) for site in _sites(ast.parse(path.read_text()), path.stem, hit)}


def test_cos_and_sin_are_called_only_in_rotation_cos_sin():
    """Every cos/sin in src/filtra is taken by `filters.rotation_cos_sin` on an
    exact turn, and so is every read of the full turn `TAU`, whose
    assignment alone reads pi or tau: the coordinate maps, the irreps and
    the DCT columns read its values, so no float-angle path can differ from
    them in the last bits."""

    def reads(*names):
        def hit(node):
            return isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) and _name(node) in names

        return hit

    def calls(node):
        return isinstance(node, ast.Call) and _name(node.func) in ("cos", "sin")

    assert _src_sites(calls) == {"filters.rotation_cos_sin"}
    assert _src_sites(reads("TAU")) == {"filters.rotation_cos_sin"}
    assert _src_sites(reads("pi", "tau")) == {"filters.TAU"}
