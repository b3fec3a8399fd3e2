import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import inv3sat

# plain result records: named tuples, so importing the package generates no code for them
RECORDS = {
    "closure": ("ClosureResult",),
    "inverse": ("PrefixCover", "PrefixRecord", "DecisionReport", "Analysis"),
    "oracle": ("OracleVerdict",),
    "harness": (
        "InstanceSpec", "Examination", "BatteryResult",
        "DiscrepancyReport", "CampaignResult",
    ),
}


def test_every_exported_name_resolves():
    namespace = {}
    exec("from inv3sat import *", namespace)
    for name in inv3sat.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(inv3sat, name)


def test_no_class_is_a_dataclass():
    # Cnf and ModelSet are plain classes, so importing formula neither
    # decorates a class nor loads dataclasses and inspect
    found = set()
    for info in pkgutil.walk_packages(inv3sat.__path__, "inv3sat."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value):
                found.add(value.__qualname__)
    assert found == set()
    tree = ast.parse(Path(inv3sat.formula.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported


def test_result_records_are_tuples():
    for module, names in RECORDS.items():
        for name in names:
            record = getattr(importlib.import_module(f"inv3sat.{module}"), name)
            assert issubclass(record, tuple) and record._fields, name


def test_no_record_carries_a_cover_floor():
    # every walk starts at stratum 1, so no result records a floor
    for module, names in RECORDS.items():
        for name in names:
            record = getattr(importlib.import_module(f"inv3sat.{module}"), name)
            assert "kmin" not in record._fields, name


def test_no_walk_takes_a_cover_floor():
    from inv3sat.harness import classify, examine_instance
    from inv3sat.inverse import decide, open_prefixes

    for fn in (decide, open_prefixes, examine_instance, classify):
        assert "kmin" not in inspect.signature(fn).parameters, fn.__name__
    # a floor still passed by position fails instead of reading as a deadline
    for fn in (decide, open_prefixes):
        assert inspect.signature(fn).parameters["deadline"].kind is inspect.Parameter.KEYWORD_ONLY
