"""Exact incidence algebra and straightedge constructions on plane cubics.

Every name is imported from its module (``grassmann.core``,
``grassmann.poly``, ``grassmann.expr``, ``grassmann.constructions``, ...);
the package itself binds only ``__version__``.
"""

__version__ = "0.1.0"
