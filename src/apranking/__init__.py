"""Average-precision-oriented ranking toolkit.

Listwise AP surrogate losses with analytic gradients, top-K Chamfer-style
sequence similarity, frame-pair pseudo labeling, exact AP/mAP/micro-AP
metrics, and a seeded synthetic training harness with a minimal reverse-mode
autodiff engine.

The API lives in the submodules (``apranking.losses``, ``apranking.trainer``,
...); import them by name. This package root imports nothing, so
``import apranking.cli`` loads no numpy and the CLI can pin the numeric
thread pools before numpy loads.
"""

__version__ = "0.1.0"
