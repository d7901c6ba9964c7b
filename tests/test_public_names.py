import ast
import re
from pathlib import Path

import infodensity

REMOVED = (
    "DirectedLoop",
    "iter_loops",
    "enumerate_loops",
    "PhiMatrix",
    "TwoBlockModel",
    "as_two_block",
    "CanonicalSpectrum",
    "block_chain_traces",
    "normality_diagnostic",
    "GammaMatrix",
    "compute_gamma",
    "homogeneous_gamma_power",
    "multiple_correlation",
    "to_correlation_model",
    "BlockNotScalar",
    "compute_phi",
    "two_block_trace",
    "scalar_pair_cgf",
    "regression_block",
    "SameBlock",
    "homogeneous_mean",
    "KStatistics",
    "canonical_correlations",
    "cgf_numeric_cumulants",
    "density_at",
    "density_at_direct",
)


def test_every_exported_name_resolves_once():
    names = infodensity.__all__
    assert len(names) == len(set(names)) == 38
    for name in names:
        assert getattr(infodensity, name) is not None


def test_removed_names_absent():
    for name in REMOVED:
        assert name not in infodensity.__all__
        assert not hasattr(infodensity, name)


def _package_uses():
    """Names the package's modules read, outside ``__init__.py`` and each name's own definition.

    Parsed, not grepped, so a name in a docstring or comment is no use.
    """
    used = set()
    for path in Path(infodensity.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            used |= names - {getattr(statement, "name", None)}
    return used


def test_every_export_used_by_the_package():
    # The tests' oracles live in conftest, so every export has a caller in the package.
    assert set(infodensity.__all__) - _package_uses() == set()


def _library_example():
    """The python blocks of README's "Library use" section, joined, without their fences."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^## Library use$(.*?)(?=^## )", readme, flags=re.M | re.S).group(1)
    return "".join(re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S))


def test_readme_library_example_runs():
    """README's example runs as written, so a name it calls cannot leave the package unnoticed."""
    code = _library_example()
    assert code.strip(), "README's Library use section has no python block"
    exec(compile(code, "README.md (Library use)", "exec"), {"__name__": "__main__"})


def test_measures_imports_nothing_from_the_factor_layer():
    # Every analytic measure reads what the model holds; none factors, inverts or takes a log-determinant itself.
    imported = set()
    for node in ast.walk(ast.parse((Path(infodensity.__file__).parent / "measures.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # "from ._linalg import x" names the module; "from . import _linalg" names it as an alias.
            imported.update([node.module or "", *(alias.name for alias in node.names)])
    assert not [name for name in imported if "_linalg" in name.split(".")]
