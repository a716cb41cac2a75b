"""The README's examples run as written, the names it cites exist, and no
module of the package reaches into a sibling's private names."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ordnmf

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} quick start", "exec"), {})
    ndcg, log_lik = map(float, capsys.readouterr().out.split())
    assert 0.0 < ndcg <= 1.0
    assert log_lik < 0.0


def module_references(path):
    """Each dotted name `module.name.…` in the inline code spans of path
    whose module is one of the package's modules, as a list of its parts."""
    modules = {m.name for m in pkgutil.iter_modules(ordnmf.__path__)}
    return [chain.split(".")
            for span in re.findall(r"`([^`\n]+)`", path.read_text())
            for chain in re.findall(r"(?<![\w.])\w+(?:\.\w+)+", span)
            if chain.partition(".")[0] in modules]


def resolves(parts):
    """Whether ordnmf.parts[0] has the attribute chain parts[1:]."""
    obj = importlib.import_module(f"ordnmf.{parts[0]}")
    for name in parts[1:]:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


@pytest.mark.parametrize("path", [README], ids=lambda p: p.name)
def test_module_references_resolve(path):
    # the whole chain, so that `module.Class.method` fails once the method
    # is gone, not only once the class is
    refs = module_references(path)
    assert refs
    missing = [".".join(parts) for parts in refs if not resolves(parts)]
    assert missing == []


def test_stated_block_sizes_match_constants():
    # "`module.NAME` = 2^N": a retuned block size must change the text too,
    # and every block size (a *_CELLS constant) of every module of the
    # package, and the triplet reader's run size, must be stated
    stated = re.findall(r"`(\w+)\.([A-Z_]+)` = 2\^(\d+)", README.read_text())
    blocks = {f"{module.name}.{name}"
              for module in pkgutil.iter_modules(ordnmf.__path__)
              for name in vars(importlib.import_module(
                  f"ordnmf.{module.name}"))
              if re.fullmatch(r"[A-Z_]+_CELLS", name)} | {"data._RUN_BYTES"}
    assert {"evaluation.BLOCK_CELLS", "inference.DENSE_CELLS",
            "inference.GATHER_CELLS"} <= blocks
    assert {f"{module}.{name}" for module, name, _ in stated} >= blocks
    wrong = [f"{module}.{name} = 2^{n}" for module, name, n in stated
             if getattr(importlib.import_module(f"ordnmf.{module}"), name)
             != 1 << int(n)]
    assert wrong == []


def test_stated_transient_bounds_match_tests():
    # "the bound is X (U+I)·K·8 bytes" and "X nnz·8 bytes": the bounds the
    # two transient-peak tests enforce
    from test_inference import TestScalability

    text = " ".join(README.read_text().split())
    stated = {unit: re.findall(r"the bound is ([\d.]+) " + re.escape(unit),
                               text)
              for unit in ("(U+I)·K·8 bytes", "nnz·8 bytes")}
    assert stated == {
        "(U+I)·K·8 bytes": [str(TestScalability.DENSE_TRANSIENT)],
        "nnz·8 bytes": [str(TestScalability.ENTRY_TRANSIENT)]}


def test_stated_reader_peaks_match_tests():
    # "~N bytes per line, and a test bounds it at X": the triplet reader's
    # traced peak, on the benchmark's short ids, then on the Taste
    # Profile's wide ids
    from test_data import TestLoadTriplets

    text = " ".join(README.read_text().split())
    assert re.findall(r"bytes per line, and a test bounds it at (\d+)",
                      text) == [
        str(TestLoadTriplets.PEAK_PER_LINE),
        str(TestLoadTriplets.WIDE_PEAK_PER_LINE)]


def private(name):
    """Whether name is private: a leading underscore, dunders aside."""
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def cross_module_private_names(source):
    """`module.name` for each private name that the package module whose
    source is given imports from a sibling (or from the package), or reads
    as an attribute of a sibling module it imported."""
    siblings = {m.name for m in pkgutil.iter_modules(ordnmf.__path__)}
    tree = ast.parse(source)
    found, modules = [], {}  # modules: local name -> sibling module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ordnmf"):
            origin = ((node.module or "").removeprefix("ordnmf").lstrip(".")
                      or "ordnmf")
            for alias in node.names:
                if private(alias.name):
                    found.append(f"{origin}.{alias.name}")
                elif origin == "ordnmf" and alias.name in siblings:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_private_names_across_modules():
    # the checker finds both forms, and lets dunders through
    assert cross_module_private_names(
        "from .data import _cell_keys\n"
        "from . import inference, __version__\n"
        "inference._take_by_class(inference.__doc__)\n") == [
            "data._cell_keys", "inference._take_by_class"]
    package = Path(ordnmf.__file__).resolve().parent
    found = {path.name: cross_module_private_names(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
