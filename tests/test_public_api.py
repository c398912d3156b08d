"""The package's public names: every export resolves, once."""

import vcadjust


def test_every_export_resolves_once():
    names = vcadjust.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(vcadjust, name)]
    assert not missing


def test_star_import():
    scope = {}
    exec("from vcadjust import *", scope)
    assert set(vcadjust.__all__) <= set(scope)
