import inv3sat


def test_every_exported_name_resolves():
    namespace = {}
    exec("from inv3sat import *", namespace)
    for name in inv3sat.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(inv3sat, name)
