"""The span tracer of the benchmark (perfbench/tracing.py) works by rebinding
module-level functions of wfci by name.  A renamed, removed or merged function
would surface only when a traced run raises in `tracing.install`, so every
name it rebinds is checked here, against the tracer's own tables."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("wfci_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_rebinds_is_a_distinct_wfci_function():
    tracing = _tracing()
    names = [(mod, attr)
             for table in (tracing.SPANNED, tracing.SPANNED_GENERATORS,
                           tracing.COUNTED, tracing.COUNTED_GENERATORS)
             for mod, attrs in table.items() for attr in attrs]
    # install patches these of cli besides the tables' names
    names += [("cli", "build_parser"), ("cli", "main")]
    assert len(set(names)) == len(names)
    functions = {}
    for mod, attr in names:
        module = importlib.import_module(f"wfci.{mod}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), f"wfci.{mod}.{attr} is not a function"
        # defined in that module, so a rebinding by identity reaches its callers
        assert fn.__module__ == module.__name__, f"wfci.{mod}.{attr}"
        functions[mod, attr] = fn
    # rebinding goes by identity: two names bound to one function would be
    # wrapped as one
    assert len({id(fn) for fn in functions.values()}) == len(functions)
    # rendering is traced through the json module that cli holds
    cli = importlib.import_module("wfci.cli")
    assert inspect.ismodule(cli.json) and inspect.isfunction(cli.json.dumps)
    assert set(tracing.LAYERS) >= {mod for mod, _ in names}
