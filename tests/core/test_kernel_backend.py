"""``REPRO_KERNEL`` backend resolution.

The variable is read once, at import: ``python`` (the default) runs the
batched kernel, ``reference`` the scalar object walk, and anything else
warns and falls back to ``python``.  The in-process cases call the
resolver directly; the import-time cases run a fresh interpreter so the
strategies' module-level batching flags are computed from the variable.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core import kernel

_SRC = str(Path(kernel.__file__).resolve().parents[2])

_PROBE = (
    "from repro.core import kernel\n"
    "from repro.core.strategies import _builder, search\n"
    "print(kernel.ACTIVE_BACKEND, kernel.batching_enabled(),"
    " _builder._BATCHING_ENABLED, search._BATCHING_ENABLED)\n"
)


def _resolve(monkeypatch, value: str | None) -> str:
    if value is None:
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNEL", value)
    return kernel._resolve_backend()


def _import_with(value: str | None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL"}
    env["PYTHONPATH"] = _SRC
    if value is not None:
        env["REPRO_KERNEL"] = value
    return subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


class TestResolveBackend:
    def test_backends(self):
        assert kernel.KERNEL_BACKENDS == ("python", "reference")

    def test_unset_is_python(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve(monkeypatch, None) == "python"

    def test_empty_is_python(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve(monkeypatch, "  ") == "python"

    def test_reference(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve(monkeypatch, " Reference ") == "reference"

    @pytest.mark.parametrize("value", ["compiled", "mypyc", "pyhton"])
    def test_unknown_warns_and_uses_python(self, monkeypatch, value):
        with pytest.warns(RuntimeWarning, match=f"REPRO_KERNEL={value!r}"):
            assert _resolve(monkeypatch, value) == "python"


class TestBatchingAtImport:
    def test_unset_batches(self):
        result = _import_with(None)
        assert result.stdout.split() == ["python", "True", "True", "True"]
        assert "RuntimeWarning" not in result.stderr

    def test_reference_disables_batching(self):
        result = _import_with("reference")
        assert result.stdout.split() == ["reference", "False", "False", "False"]
        assert "RuntimeWarning" not in result.stderr

    def test_compiled_warns_and_batches(self):
        result = _import_with("compiled")
        assert result.stdout.split() == ["python", "True", "True", "True"]
        assert "RuntimeWarning" in result.stderr
        assert "REPRO_KERNEL='compiled'" in result.stderr
