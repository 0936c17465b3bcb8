"""The data-plane benchmark: four no-sleep workloads measured end to end and
layer by layer.  See ``bench/README.md``; the entry point is ``bench/run.py``
(``python3 bench/run.py`` or ``PYTHONPATH=src python -m bench.run``)."""
