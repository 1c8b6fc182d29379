"""The numerical kernels: spontrad._kernels_py, the one kernel source."""

from spontrad import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel backend: always 'python'."""
    return "python"
