import spinor_efimov


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from spinor_efimov import *", namespace)
    missing = [n for n in spinor_efimov.__all__ if n not in namespace]
    assert not missing
    assert len(set(spinor_efimov.__all__)) == len(spinor_efimov.__all__)
