import importlib
import pkgutil
import re
from pathlib import Path

import filtra

README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert {"filter_transform", "sample_plane", "steerable_kernel", "read_feature_csv"} <= names
    assert [name for name in sorted(names) if not any(hasattr(m, name) for m in modules)] == []
