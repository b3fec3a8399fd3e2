import dataclasses
import importlib
import pkgutil

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


def test_only_validating_values_are_dataclasses():
    found = set()
    for info in pkgutil.walk_packages(inv3sat.__path__, "inv3sat."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value):
                found.add(value.__qualname__)
    assert found == {"Cnf", "ModelSet"}


def test_result_records_are_tuples():
    for module, names in RECORDS.items():
        for name in names:
            record = getattr(importlib.import_module(f"inv3sat.{module}"), name)
            assert issubclass(record, tuple) and record._fields, name
