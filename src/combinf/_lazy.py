"""numpy, imported on its first attribute access instead of at import.

Importing numpy takes about 0.17 s of a fresh process's start-up, and
``combinf pvalue`` is exact integer arithmetic that uses no arrays. So the
modules with array code take ``np`` from here, not from
``import numpy as np``. While numpy is not yet imported,
``np`` is a module registered in ``sys.modules`` through
``importlib.util.LazyLoader``: numpy's own import runs on the first
attribute access (``np.asarray``, ``np.ndarray``, ...), by whichever caller
comes first, after which the object is the ordinary numpy module. A plain
``import numpy`` elsewhere also loads it, since the import system reads the
module's ``__spec__``. If numpy is already imported, ``np`` is that module.
If numpy is missing, or blocked by ``sys.modules["numpy"] = None``, the
plain import below raises at ``import combinf``, as it always did.

On Python < 3.12, ``LazyLoader``'s first access is not thread-safe: two
threads that touch ``np`` for the first time at once can both run numpy's
import. Touch it once (``np.ndarray``) before starting such threads.
"""

import importlib.util
import sys


def _numpy():
    spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
    if spec is None:
        import numpy  # the real module, or ImportError if missing or blocked
        return numpy
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _numpy()
