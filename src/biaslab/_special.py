"""scipy's ``ndtr``, ``log_ndtr`` and ``expit``, loaded on first use from their compiled module.

Only the probit and logit fits, their population limits and the probit
closed form call these three functions, so no module imports scipy at import
time: callers read ``_special.ndtr`` and so on, and the first such read
(PEP 562 module ``__getattr__``) loads them and binds all three names here,
so every later read is a plain module attribute lookup.

The first read does not import the ``scipy.special`` package, whose
``__init__`` loads scipy's array-API layer and through it ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``: about 320 ms under ``-X importtime``.
The three ufuncs live in the compiled module ``scipy.special._special_ufuncs``,
which loads in about 1 ms. So the first read takes that module from
``sys.modules`` if something already imported it; otherwise it locates scipy
with ``importlib.util.find_spec``, which imports nothing, and loads the
extension file ``<scipy>/special/_special_ufuncs<suffix>`` directly. Loading
it registers it in ``sys.modules`` under its full name; the first read takes
that entry out again, so scipy's import state is as it was. A later
``import scipy.special`` then imports the extension the normal way, sets the
package's ``_special_ufuncs`` attribute and, through CPython's extension
cache, hands out the same objects. This layout is scipy's private one and was
measured on scipy 1.17.1; where the file is missing or lacks one of the three
names (older scipy keeps ``ndtr`` in ``_ufuncs``, whose import loads the
whole package), the first read imports ``scipy.special`` instead. Either way
the bound objects are scipy's own, so results do not depend on which path or
when they load.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAMES = ("ndtr", "log_ndtr", "expit")
_EXTENSION = "scipy.special._special_ufuncs"


def _ufunc_module():
    """The loaded module that defines all three names; see the module docstring."""
    module = sys.modules.get(_EXTENSION)
    scipy = importlib.util.find_spec("scipy") if module is None else None
    if scipy is not None:  # None: scipy is missing, and the import below says so
        (scipy_dir,) = scipy.submodule_search_locations
        stem = os.path.join(scipy_dir, *_EXTENSION.split(".")[1:])
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if os.path.isfile(stem + suffix):
                spec = importlib.util.spec_from_file_location(_EXTENSION, stem + suffix)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules.pop(_EXTENSION, None)
                break
    if module is None or not all(hasattr(module, name) for name in _NAMES):
        import scipy.special as module
    return module


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = _ufunc_module()
    for bound in _NAMES:
        globals()[bound] = getattr(module, bound)
    return globals()[name]
