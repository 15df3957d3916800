import types

import graphconvex


def test_all_lists_public_names_and_no_modules():
    assert len(set(graphconvex.__all__)) == len(graphconvex.__all__)
    for name in graphconvex.__all__:
        value = getattr(graphconvex, name)
        assert not isinstance(value, types.ModuleType), name
    namespace = {}
    exec("from graphconvex import *", namespace)
    assert "theorems" not in namespace and "lattice" not in namespace
    assert {"Graph", "is_midpoint_convex_at", "verify_degree2_equivalence"} <= set(namespace)
