"""The traced benchmark pass (``perfbench/tracer.py``) wraps nhskin functions
by name; each name in its ``LAYERS`` must still exist in its module."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_layers_name_existing_functions():
    # executed from its source, so nothing is written next to it
    tracer = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    missing = [f"nhskin.{layer}.{name}" for layer, funcs in tracer["LAYERS"].items()
               for name in funcs
               if not callable(getattr(importlib.import_module(f"nhskin.{layer}"),
                                       name, None))]
    assert not missing
