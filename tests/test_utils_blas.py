"""Tests for repro.utils.blas: exact float-GEMM products and the BLAS thread pin."""

from __future__ import annotations

import ast
import ctypes.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils import blas
from repro.utils.blas import exact_int_matmul, limit_blas_threads

SRC = Path(__file__).resolve().parents[1] / "src"


class TestExactIntMatmul:
    @pytest.mark.parametrize(
        "high,k",
        [
            (1, 300),  # 0/1 rows: float32
            (1 << 6, 4095),  # k * 2^12 < 2^24: the largest float32 case of this shape
            (1 << 6, 4096),  # k * 2^12 = 2^24: int64 fallback
            (1 << 30, 50),  # far beyond float precision
        ],
    )
    def test_matches_int64_reference(self, high, k):
        rng = np.random.default_rng(high + k)
        a = rng.integers(-high, high, size=(60, k), endpoint=True)
        b = rng.integers(-high, high, size=(k, 40), endpoint=True)
        a[0, :] = high
        b[:, 0] = high
        product = exact_int_matmul(a, b)
        assert product.dtype == np.int64
        assert np.array_equal(product, a @ b)

    def test_empty_operands(self):
        product = exact_int_matmul(np.zeros((3, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
        assert product.tolist() == [[0, 0]] * 3


class TestLimitBlasThreads:
    def test_no_library_found_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas, "_openblas_libraries", lambda: [])
        assert limit_blas_threads(1) is False

    def test_library_without_setter_is_skipped(self, monkeypatch):
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no C library to stand in for a BLAS without the symbol")
        monkeypatch.setattr(blas, "_openblas_libraries", lambda: [libc, "/nonexistent/openblas.so"])
        assert limit_blas_threads(1) is False

    def test_twice_is_harmless(self):
        """Run in a child process: the pin must not leak into this test session."""
        script = (
            "import json, ctypes, numpy as np\n"
            "from repro.utils import blas\n"
            "first, second = blas.limit_blas_threads(1), blas.limit_blas_threads(1)\n"
            "threads = []\n"
            "for path in blas._openblas_libraries():\n"
            "    lib = ctypes.CDLL(path)\n"
            "    for name in ('scipy_openblas_get_num_threads64_', 'scipy_openblas_get_num_threads',\n"
            "                 'openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
            "        if hasattr(lib, name):\n"
            "            threads.append(getattr(lib, name)())\n"
            "            break\n"
            "a = np.arange(40000, dtype=np.float64).reshape(200, 200) % 7\n"
            "ok = bool(np.array_equal(a @ a, (a.astype(np.int64) @ a.astype(np.int64)).astype(np.float64)))\n"
            "print(json.dumps([first, second, threads, ok]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        first, second, threads, ok = json.loads(out.stdout.strip().splitlines()[-1])
        assert first == second
        assert ok
        if first:
            assert threads and all(count == 1 for count in threads)

    def test_called_only_from_peer_entry_points(self):
        """The driver and in-process runs keep BLAS's default thread count."""

        class Callers(ast.NodeVisitor):
            def __init__(self):
                self.stack, self.found = ["<module>"], []

            def visit_FunctionDef(self, node):
                self.stack.append(node.name)
                self.generic_visit(node)
                self.stack.pop()

            def visit_Call(self, node):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "limit_blas_threads":
                    self.found.append(self.stack[-1])
                self.generic_visit(node)

        callers = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            visitor = Callers()
            visitor.visit(ast.parse(path.read_text()))
            callers += [(path.relative_to(SRC).as_posix(), name) for name in visitor.found]
        assert sorted(callers) == [
            ("repro/runtime/dealer.py", "run_dealer"),
            ("repro/runtime/server.py", "run_server"),
        ]

    def test_no_thread_control_dependency(self):
        root = SRC.parent
        for name in ("pyproject.toml", "setup.py"):
            text = (root / name).read_text()
            assert "threadpoolctl" not in text
