"""scipy.special's ``ndtr``, ``log_ndtr`` and ``expit``, imported on first use.

Importing ``scipy.special`` takes most of ``import biaslab``'s time, as its
package ``__init__`` loads scipy's array-API layer, yet only the probit and
logit fits, their population limits and the probit closed form call these
three functions. So no module imports scipy at import time: callers read
``_special.ndtr`` and so on, and the first such read imports
``scipy.special`` (PEP 562 module ``__getattr__``) and binds all three names
here, so every later read is a plain module attribute lookup. The bound
objects are scipy's own, so results do not depend on when they load.
"""

_NAMES = ("ndtr", "log_ndtr", "expit")


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import scipy.special

    for bound in _NAMES:
        globals()[bound] = getattr(scipy.special, bound)
    return globals()[name]
