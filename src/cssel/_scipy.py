"""scipy extension modules, loaded without their subpackage's init.

The package calls two scipy extensions: scipy.linalg._flapack (LAPACK, in
cssel.lasso) and scipy.special._ufuncs (ndtri, in cssel.rng).  Importing
either the usual way first runs the init of scipy.linalg or scipy.special,
which loads scipy's array-API layer and a few hundred modules that the
package never calls.  load_extension runs the extension alone, under a
stand-in for its subpackage, and registers it under its own name, so a
later import of the subpackage reuses the same module and hands out the very
same objects.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import types
from importlib.util import find_spec

# Held while a stand-in subpackage is in sys.modules, so no other thread's
# load can see it.
_LOCK = threading.Lock()


def load_extension(subpackage: str, extension: str) -> types.ModuleType:
    """The module scipy.<subpackage>.<extension>.

    With scipy.<subpackage> already imported this is a plain import.
    Otherwise a stand-in module takes the subpackage's place in sys.modules
    for the one import: its __path__ is the subpackage's directory, so the
    extension and any sibling it imports are found there, and the
    subpackage's __init__ never runs.  The stand-in is removed afterwards.
    If the import fails, the siblings loaded under the stand-in are dropped
    too, and the plain import, which returns the same objects, serves.
    """
    parent = f"scipy.{subpackage}"
    name = f"{parent}.{extension}"
    with _LOCK:
        if parent in sys.modules:
            return importlib.import_module(name)
        scipy_dir = find_spec("scipy").submodule_search_locations[0]
        stand_in = types.ModuleType(parent)
        stand_in.__path__ = [os.path.join(scipy_dir, subpackage)]
        before = set(sys.modules)
        sys.modules[parent] = stand_in
        try:
            return importlib.import_module(name)
        except Exception:  # whatever the module code raised under the stand-in
            for loaded in set(sys.modules) - before:
                if loaded.startswith(f"{parent}."):
                    del sys.modules[loaded]
        finally:
            del sys.modules[parent]
        return importlib.import_module(name)
