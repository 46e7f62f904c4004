"""The package namespace: __all__ names exactly what `import pdlab` exports."""
import inspect

import pdlab


def test_all_lists_every_public_name_once():
    public = {
        name for name, obj in vars(pdlab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert len(pdlab.__all__) == len(set(pdlab.__all__))
    assert set(pdlab.__all__) == public | {"__version__"}
