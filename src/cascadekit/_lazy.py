"""Modules and functions imported on first use.

``np = deferred("numpy", globals(), "np")`` binds ``np`` to a stand-in that
imports numpy when one of its attributes is first read and then rebinds the
importer's ``np`` to numpy itself, so later lookups pay nothing. A command
that never computes with numpy (``wiener``, ``stats``, ``--help``) never
loads it.

``train = deferred_function(".learner", "train", globals())`` does the same
for one function: the first call imports the module, and the importer's
``train`` is rebound to the function. The importer's own code keeps calling
through its global, so a caller that rebinds that global (to trace it, or in
a test) sees every call. A module name that starts with a dot is relative to
the importer's package.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Any, Callable


def _import(name: str, namespace: dict[str, Any]) -> ModuleType:
    return importlib.import_module(name, namespace.get("__package__"))


class _Deferred:
    __slots__ = ("_name", "_namespace", "_binding")

    def __init__(self, name: str, namespace: dict[str, Any], binding: str) -> None:
        self._name = name
        self._namespace = namespace
        self._binding = binding

    def __getattr__(self, attr: str) -> Any:
        # The import system's per-module lock runs the module body once when
        # threads touch it together; each then stores the same module object.
        module = _import(self._name, self._namespace)
        self._namespace[self._binding] = module
        return getattr(module, attr)


def deferred(name: str, namespace: dict[str, Any], binding: str) -> ModuleType:
    """A stand-in for module ``name``, bound as ``binding`` in ``namespace``
    (the importer's ``globals()``), which it replaces with the module on the
    first attribute read."""
    return _Deferred(name, namespace, binding)  # type: ignore[return-value]


def deferred_function(module: str, name: str, namespace: dict[str, Any]) -> Callable:
    """A stand-in for the callable ``name`` of ``module``, bound as ``name``
    in ``namespace`` (the importer's ``globals()``). Each call imports the
    module and calls the real callable. The first call also rebinds
    ``namespace[name]`` to it, but only while that still holds this
    stand-in: a binding someone else made since, such as a tracing wrapper
    that calls the stand-in, is kept, and so sees every later call too."""

    def stand_in(*args: Any, **kwargs: Any) -> Any:
        function = getattr(_import(module, namespace), name)
        if namespace.get(name) is stand_in:
            namespace[name] = function
        return function(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in
