import ast
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
)

# Exports that only the tests call. The `analyze --verify` section planned in
# ROADMAP.md is to call each from a report, which should empty this set.
UNUSED_UNTIL_VERIFY = {
    "canonical_correlations",
    "cgf_numeric_cumulants",
    "density_at",
    "density_at_direct",
}


def test_every_exported_name_resolves_once():
    names = infodensity.__all__
    assert len(names) == len(set(names)) == 42
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
    assert set(infodensity.__all__) - _package_uses() == UNUSED_UNTIL_VERIFY
