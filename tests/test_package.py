"""The package's public surface: every name ``pimsim.__all__`` exports
exists, so ``from pimsim import *`` works."""

import pimsim


def test_every_public_name_resolves_and_star_import_works():
    assert len(set(pimsim.__all__)) == len(pimsim.__all__)
    missing = [name for name in pimsim.__all__ if not hasattr(pimsim, name)]
    assert not missing, f"in pimsim.__all__ but undefined: {missing}"
    namespace = {}
    exec("from pimsim import *", namespace)
    assert set(pimsim.__all__) <= set(namespace)
