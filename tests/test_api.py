import types

import fedres


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(fedres.__all__)) == len(fedres.__all__)
    for name in fedres.__all__:
        assert not isinstance(getattr(fedres, name), types.ModuleType), name
