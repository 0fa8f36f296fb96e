"""Faults the self-tests plant into sample interpreters from outside.

A test writes a ``sitecustomize.py`` that calls one of these into a
directory it puts on the samples' ``PYTHONPATH`` (``_plant`` in
``test_selftest.py``); Python imports it when each interpreter starts.
The benchmark itself reads no switch for them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import layers  # noqa: E402
import spans  # noqa: E402


def _install(name: str, wrap) -> None:
    targets = [t for t in layers.TARGETS if t[2] == name]
    assert targets, f"no layer function is named {name!r}"
    for module_name, *_ in targets:
        importlib.import_module(module_name)
    spans.install(targets, wrap)


def delay(name: str, fraction: float) -> None:
    """Make each call of the layer function ``name`` take ``fraction`` longer."""

    def wrap(fn, name, key, method):
        def planted(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                now = time.perf_counter()
                until = now + (now - started) * fraction
                while time.perf_counter() < until:
                    pass

        return planted

    _install(name, wrap)


def drop(name: str, nth: int) -> None:
    """Swallow the ``nth`` call of the layer function ``name``."""
    calls = [0]

    def wrap(fn, name, key, method):
        def planted(*args, **kwargs):
            calls[0] += 1
            if calls[0] == nth:
                return None
            return fn(*args, **kwargs)

        return planted

    _install(name, wrap)
