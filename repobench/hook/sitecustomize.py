"""Turns on per-layer tracing in every interpreter of a traced benchmark
unit: this directory is on ``PYTHONPATH`` only when ``run.py`` traces a
unit, and ``REPOBENCH_TRACE_DIR`` names where the spans go."""
import repobench_trace

repobench_trace.install_from_env()
