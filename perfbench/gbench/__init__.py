"""The GeoBlocks serving benchmark.

One command (``python3 perfbench/run.py``) runs one named workload
against the program's public entry points, checks every answer against
an independently built reference block, and prints the end-to-end
metrics (``--trace 0``) or the per-layer breakdown (``--trace 1``) as
the last line of standard output.

Modules:

* :mod:`gbench.stats` -- percentile and tail arithmetic;
* :mod:`gbench.inputs` -- every input derived from the workload seed;
* :mod:`gbench.oracle` -- the cache-free reference answers;
* :mod:`gbench.trace` -- span recorders wrapped around the program's
  public functions, self-time arithmetic, layer metrics;
* :mod:`gbench.loadgen` -- closed loops, open-loop rate ladders and the
  fixed-rate writer, over HTTP or in-process;
* :mod:`gbench.server` -- the serving process launcher;
* :mod:`gbench.workloads` -- the three workloads and the result line.
"""
