import inspect

import saakiqa


def test_all_matches_public_bindings():
    names = saakiqa.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(saakiqa, name), name
    public = {name for name, value in vars(saakiqa).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) - {"__version__"} == public
