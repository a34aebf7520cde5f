"""Exact reference models for every numeric kernel.

Each test replays the kernel's arithmetic in plain Python and compares
the full output array — the strongest functional guarantee the workload
suite can give (the timing simulator is separately proven equivalent to
the functional interpreter in test_scheme_equivalence).
"""

import numpy as np

from repro.isa.executor import run_functional
from repro.workloads.kernels.linalg import (
    gmtry, vpenta, tomcatv, cholsky,
)
from repro.workloads.kernels.transforms import emit, btrix
from repro.workloads.kernels.util import fpattern


def run(kernel, **kw):
    prog = kernel(iterations=1, data_base=0x100000, **kw)
    _, mem = run_functional(prog, max_steps=3_000_000)
    return prog, mem


class TestGmtryReference:
    def test_elimination_matches(self):
        n = 8
        prog, mem = run(gmtry, n=n)
        width = 2 * n
        m = fpattern(n * width, 7, 63)
        for p in range(n - 1):
            pivot = m[p * width]
            f2 = 1.0 / (pivot + 1.0)
            for k in range(width):
                m[(p + 1) * width + k] -= m[p * width + k] * f2
        got = mem.read_words(prog.data.address_of("m"), n * width)
        np.testing.assert_allclose(got, m)


class TestVpentaReference:
    def test_forward_elimination_matches(self):
        n = 64
        prog, mem = run(vpenta, n=n)
        d0 = fpattern(n, 3, 31)
        d1 = fpattern(n, 5, 31)
        rhs = fpattern(n, 5, 31)
        for i in range(n):
            f2 = 1.0 / (d0[i] + 1.0)
            d1[i] = d1[i] * f2
            rhs[i] = rhs[i] * f2
        got_d1 = mem.read_words(prog.data.address_of("d1"), n)
        got_rhs = mem.read_words(prog.data.address_of("rhs"), n)
        np.testing.assert_allclose(got_d1, d1)
        np.testing.assert_allclose(got_rhs, rhs)

    def test_untouched_diagonals_unchanged(self):
        n = 64
        prog, mem = run(vpenta, n=n)
        got_d0 = mem.read_words(prog.data.address_of("d0"), n)
        np.testing.assert_allclose(got_d0, fpattern(n, 3, 31))


class TestTomcatvReference:
    def test_relaxation_matches(self):
        n = 8
        prog, mem = run(tomcatv, n=n)
        gx = fpattern(n * n, 5, 31)
        gy = fpattern(n * n, 7, 31)
        # In-place sequential sweep: each step reads the updated gx.
        for i in range(n * n - 2):
            f5 = gx[i] + gx[i + 2]
            f6 = gy[i] + 2.0
            gx[i + 1] += f5 / f6
        got = mem.read_words(prog.data.address_of("gx"), n * n)
        np.testing.assert_allclose(got, gx)


class TestCholskyReference:
    def test_column_scaling_matches(self):
        n = 8
        prog, mem = run(cholsky, n=n)
        total = n * n + (n // 2 + 1) * n     # matrix + walk padding
        m = fpattern(total, 9, 63)
        idx = 0
        for _ in range(n - 1):
            f2 = 1.0 / (m[idx] + 1.0)
            walk = idx
            for _ in range(n // 2):
                walk += n
                m[walk] *= f2
            idx += n + 1
        got = mem.read_words(prog.data.address_of("m"), total)
        np.testing.assert_allclose(got, m)


class TestEmitReference:
    def test_particle_update_matches(self):
        n = 16
        prog, mem = run(emit, n=n)
        vel = fpattern(n, 5, 15)
        pos = fpattern(n, 3, 15)
        for i in range(n):
            f4 = pos[i] / (vel[i] + 1.0)
            pos[i] += f4 * vel[i]
        got = mem.read_words(prog.data.address_of("pos"), n)
        np.testing.assert_allclose(got, pos)


class TestBtrixReference:
    def test_page_touch_update_matches(self):
        n_pages = 24
        prog, mem = run(btrix, n_pages=n_pages)
        base = prog.data.address_of("blocks")
        for page in range(n_pages):
            w = float(3 + 7 * page)
            expected = (w + w) * w
            assert mem.read(base + 4096 * page) == expected
            assert mem.read(base + 4096 * page + 4) == w
