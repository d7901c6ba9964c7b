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
)


def test_every_exported_name_resolves_once():
    names = infodensity.__all__
    assert len(names) == len(set(names)) == 53
    for name in names:
        assert getattr(infodensity, name) is not None


def test_removed_names_absent():
    for name in REMOVED:
        assert name not in infodensity.__all__
        assert not hasattr(infodensity, name)
