"""Names that epibound binds at import and loads at their first call.

``import epibound`` loads numpy and the standard library only.  The rest is
loaded by the first call that needs it:

* ``scipy.special`` (``ndtr``, ``ndtri``, ``stdtr``, ``stdtrit``,
  ``gammainccinv``, ``digamma``, ``betaln``), about half of a cold import
  through scipy's array-API shim, at the first Gaussian or Student-t CDF or
  quantile, the first Student-t entropy or t of df above 1e3, or the first
  reified inverse-gamma family;
* ``scipy.integrate`` (``quad``), which pulls in scipy.optimize,
  scipy.sparse.linalg and scipy.linalg, at the first quadrature;
* ``concurrent.futures.process`` (``ProcessPoolExecutor``), with
  multiprocessing, at the first run that starts worker processes;
* ``scipy`` itself, for its version, when an experiment writes its manifest.

The oracle suite, categorical ``bound`` and ``verify`` requests and the
negative-transfer rows load none of them.  A posterior mass loads
``scipy.special`` and, only where quad's first step does not settle it
(``bayes._quad_mass``), ``scipy.integrate``.
"""

from __future__ import annotations

import importlib


class Deferred:
    """``module.name``, imported at the first call.

    ``namespace`` is the ``globals()`` of the module that binds it.  The
    first call replaces that module's binding of ``name`` with the loaded
    object, so later calls reach it directly, with no frame of this class on
    their path.  A binding that was replaced from outside (perfbench's tracer
    wraps the module global ``quad`` of ``divergences`` and ``bayes``) is
    kept: the replacement's calls forward through this object.
    """

    __slots__ = ("module", "name", "_namespace", "_loaded")

    def __init__(self, module: str, name: str, namespace: dict):
        self.module, self.name = module, name
        self._namespace, self._loaded = namespace, None

    def load(self):
        """The named object, imported on the first call."""
        if self._loaded is None:
            self._loaded = getattr(importlib.import_module(self.module), self.name)
            if self._namespace.get(self.name) is self:
                self._namespace[self.name] = self._loaded
        return self._loaded

    def __call__(self, *args, **kwargs):
        return self.load()(*args, **kwargs)
