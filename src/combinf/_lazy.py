"""numpy and orjson, each imported on its first attribute access instead of
at import.

Importing numpy takes about 0.17 s of a fresh process's start-up, and
orjson a few milliseconds more; ``combinf pvalue`` is exact integer
arithmetic that uses neither, and only the matrix CSV reader uses orjson.
So the modules take ``np`` and ``orjson`` from here, not from
``import numpy as np`` and ``import orjson``. While a module is not yet
imported, its name here is a module registered in ``sys.modules`` through
``importlib.util.LazyLoader``: the module's own import runs on the first
attribute access (``np.asarray``, ``orjson.loads``, ...), by whichever
caller comes first, after which the object is the ordinary module. A plain
``import numpy`` elsewhere also loads it, since the import system reads the
module's ``__spec__``. If the module is already imported, the name is that
module. If it is missing, or blocked by ``sys.modules["numpy"] = None``, the
import in ``_lazy`` raises at ``import combinf``.

On Python < 3.12, ``LazyLoader``'s first access is not thread-safe: two
threads that touch ``np`` for the first time at once can both run numpy's
import. Touch each once (``np.ndarray``, ``orjson.loads``) before starting
such threads.
"""

import importlib.util
import sys


def _lazy(name):
    spec = None if name in sys.modules else importlib.util.find_spec(name)
    if spec is None:
        # the real module, or ImportError if missing or blocked
        return importlib.import_module(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")
orjson = _lazy("orjson")
