import pytest

from cybermodels.cli import main


@pytest.fixture(scope="session")
def figures_dir(tmp_path_factory):
    """One ``figures`` run shared by every test that reads its CSVs; no test
    may write into it."""
    outdir = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--out", str(outdir)]) == 0
    return outdir
