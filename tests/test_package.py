import klyachko


def test_all_names_are_exported():
    missing = [name for name in klyachko.__all__ if not hasattr(klyachko, name)]
    assert missing == []
    namespace = {}
    exec("from klyachko import *", namespace)
    assert set(klyachko.__all__) <= set(namespace)
