"""Kept only so that ``rwkit.kernels.BACKEND`` still reads ``"numpy"``.

Soft-thresholding is :func:`rwkit.frames.soft_threshold`; rwkit itself
imports nothing from here.  The benchmark harness (``perfbench/harness.py``)
imports this module and records ``BACKEND`` with each run, so the module
stays until the benchmark stops reading it (ROADMAP item 2).
"""

BACKEND = "numpy"
