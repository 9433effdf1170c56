"""The package namespace."""

import corruption_mfg as cm


def test_all_names_resolve_without_duplicates():
    assert len(cm.__all__) == len(set(cm.__all__))
    assert [name for name in cm.__all__ if not hasattr(cm, name)] == []
