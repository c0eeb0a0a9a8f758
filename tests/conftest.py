import pytest

from specvar import fuchsian as F


@pytest.fixture(scope="session")
def octagon_group():
    return F.preset("octagon_genus2")


@pytest.fixture(scope="session")
def octagon12(octagon_group):
    # one expensive enumeration shared by the whole session; shorter
    # cutoffs are taken with oracles.truncate_spectrum
    return F.build_spectrum(octagon_group, 12.0)


@pytest.fixture(scope="session")
def octagon_csv(octagon12, tmp_path_factory):
    path = tmp_path_factory.mktemp("spectra") / "octagon12.csv"
    F.spectrum_to_csv(octagon12, str(path))
    return str(path)
