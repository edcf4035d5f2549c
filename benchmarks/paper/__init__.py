"""The paper's evaluation: virtual-time testbed, FaaS substrate, baselines,
applications and one module per figure/table.  See ``README.md`` here.

None of this is part of the ``repro`` library; it is imported as
``benchmarks.paper`` with the repository root on ``sys.path`` (what
``python -m pytest`` from the root, or ``PYTHONPATH=src:.``, provides).
"""
