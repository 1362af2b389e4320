"""Kernel backend selection.

The compiled extension (tracediagrams._speedups) is preferred when importable;
otherwise the pure-Python reference kernels are used.  Set the environment
variable TRACEDIAGRAMS_KERNELS to "pure" or "compiled" to force a backend
(forcing "compiled" raises if the extension is missing).
"""

import os

_requested = os.environ.get("TRACEDIAGRAMS_KERNELS", "").lower()

if _requested == "pure":
    from . import _kernels_pure as _impl
    BACKEND = "pure"
elif _requested == "compiled":
    from . import _speedups as _impl  # ImportError here is deliberate
    BACKEND = "compiled"
else:
    try:
        from . import _speedups as _impl
        BACKEND = "compiled"
    except ImportError:
        from . import _kernels_pure as _impl
        BACKEND = "pure"

pair_contract = _impl.pair_contract
permute_axes = _impl.permute_axes
epsilon_network = _impl.epsilon_network
