"""Modules imported on first use.

``np = deferred("numpy", globals(), "np")`` binds ``np`` to a stand-in that
imports numpy when one of its attributes is first read and then rebinds the
importer's ``np`` to numpy itself, so later lookups pay nothing. A command
that never computes with numpy (``wiener``, ``stats``, ``--help``) never
loads it.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Any


class _Deferred:
    __slots__ = ("_name", "_namespace", "_binding")

    def __init__(self, name: str, namespace: dict[str, Any], binding: str) -> None:
        self._name = name
        self._namespace = namespace
        self._binding = binding

    def __getattr__(self, attr: str) -> Any:
        # The import system's per-module lock runs the module body once when
        # threads touch it together; each then stores the same module object.
        module = importlib.import_module(self._name)
        self._namespace[self._binding] = module
        return getattr(module, attr)


def deferred(name: str, namespace: dict[str, Any], binding: str) -> ModuleType:
    """A stand-in for module ``name``, bound as ``binding`` in ``namespace``
    (the importer's ``globals()``), which it replaces with the module on the
    first attribute read."""
    return _Deferred(name, namespace, binding)  # type: ignore[return-value]
