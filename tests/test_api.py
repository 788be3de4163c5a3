"""The package's public names."""
import qsreg


def test_every_exported_name_resolves():
    assert len(set(qsreg.__all__)) == len(qsreg.__all__)
    missing = [name for name in qsreg.__all__ if not hasattr(qsreg, name)]
    assert missing == []
