"""The package's public surface."""
import afsasim


def test_every_exported_name_resolves():
    missing = [name for name in afsasim.__all__ if not hasattr(afsasim, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(afsasim.__all__) == len(set(afsasim.__all__))
