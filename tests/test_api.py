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


def _tour_identifiers() -> set[str]:
    """Backticked lower-case identifiers with an underscore in the library
    tour, without call arguments or `module.` prefixes; `*` patterns are
    skipped."""
    names = set()
    for row in _library_tour_rows():
        for span in re.findall(r"`([^`]+)`", row):
            match = re.match(r"[a-z_][a-z0-9_.]*", span)
            if "*" in span or match is None:
                continue
            name = match.group().rsplit(".", 1)[-1]
            if "_" in name:
                names.add(name)
    return names


def test_library_tour_names_resolve():
    modules = [filtra] + [
        importlib.import_module(f"filtra.{info.name}") for info in pkgutil.iter_modules(filtra.__path__)
    ]
    names = _tour_identifiers()
    assert {"filter_transform", "sample_plane", "steerable_kernel", "read_filter_csv"} <= names
    assert [name for name in sorted(names) if not any(hasattr(m, name) for m in modules)] == []


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
