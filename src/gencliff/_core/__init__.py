"""The arithmetic kernel.

``pykernel`` is the only kernel; ``kernel`` and ``BACKEND`` name it for the
modules that call it and for the report's ``tool.kernel`` field.
"""

from . import pykernel

kernel = pykernel
BACKEND = "python"

__all__ = ["kernel", "pykernel", "BACKEND"]
