"""Spec89 stand-in kernels: functional correctness and properties."""

import numpy as np
import pytest

from repro.isa.executor import run_functional, Memory
from repro.isa.encoding import encode, decode
from repro.workloads.kernels import KERNELS
from repro.workloads.kernels.linalg import mxm, matrix300, gmtry
from repro.workloads.kernels.transforms import cfft2d, btrix
from repro.workloads.kernels.integer import li, eqntott
from repro.workloads.kernels.util import fpattern, ipattern


class TestAllKernelsRun:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_one_iteration_halts(self, name):
        prog = KERNELS[name](iterations=1, scale=0.25,
                             data_base=0x100000)
        state, _ = run_functional(prog, max_steps=3_000_000)
        assert state.halted

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_continuous_form_never_halts(self, name):
        prog = KERNELS[name](iterations=None, scale=0.25,
                             data_base=0x100000)
        from repro.isa.executor import ExecutionError
        with pytest.raises(ExecutionError):
            run_functional(prog, max_steps=30_000)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernels_encode(self, name):
        """Every kernel must be binary-encodable (honest immediates)."""
        prog = KERNELS[name](iterations=1, scale=0.25,
                             data_base=0x100000)
        for i, inst in enumerate(prog.instructions):
            assert decode(encode(inst, i), i).disassemble() == \
                inst.disassemble()


class TestMxmNumerics:
    def test_matches_numpy(self):
        n = 8
        prog = mxm(iterations=1, n=n, data_base=0x100000)
        _, mem = run_functional(prog, max_steps=1_000_000)
        a = np.array(fpattern(n * n, 7, 31)).reshape(n, n)
        b = np.array(fpattern(n * n, 3, 15)).reshape(n, n)
        expected = a @ b
        c_addr = prog.data.address_of("c")
        got = np.array(mem.read_words(c_addr, n * n),
                       dtype=float).reshape(n, n)
        np.testing.assert_allclose(got, expected)


class TestMatrix300Numerics:
    def test_rank1_update(self):
        n = 6
        prog = matrix300(iterations=1, n=n, data_base=0x100000)
        _, mem = run_functional(prog, max_steps=1_000_000)
        m = np.array(fpattern(n * n, 5, 63)).reshape(n, n)
        x = np.array(fpattern(n, 11, 31))
        y = np.array(fpattern(n, 13, 31))
        expected = m + np.outer(x, y)
        got = np.array(mem.read_words(prog.data.address_of("m"), n * n),
                       dtype=float).reshape(n, n)
        np.testing.assert_allclose(got, expected)

    def test_two_iterations_accumulate(self):
        n = 6
        prog = matrix300(iterations=2, n=n, data_base=0x100000)
        _, mem = run_functional(prog, max_steps=1_000_000)
        m = np.array(fpattern(n * n, 5, 63)).reshape(n, n)
        x = np.array(fpattern(n, 11, 31))
        y = np.array(fpattern(n, 13, 31))
        expected = m + 2 * np.outer(x, y)
        got = np.array(mem.read_words(prog.data.address_of("m"), n * n),
                       dtype=float).reshape(n, n)
        np.testing.assert_allclose(got, expected)


class TestCfft2dNumerics:
    def test_matches_radix2_reference(self):
        n = 16
        prog = cfft2d(iterations=1, n=n, data_base=0x100000)
        _, mem = run_functional(prog, max_steps=1_000_000)
        # Reference: standard radix-2 butterfly passes.
        re = fpattern(n, 7, 31)
        im = fpattern(n, 11, 31)
        passes = n.bit_length() - 1
        for p in range(passes):
            s = 1 << p
            for base in range(0, n, 2 * s):
                for k in range(s):
                    i, j = base + k, base + k + s
                    re[i], re[j] = re[i] + re[j], re[i] - re[j]
                    im[i], im[j] = im[i] + im[j], im[i] - im[j]
        got_re = mem.read_words(prog.data.address_of("re"), n)
        got_im = mem.read_words(prog.data.address_of("im"), n)
        np.testing.assert_allclose(got_re, re)
        np.testing.assert_allclose(got_im, im)


class TestIntegerKernels:
    def test_li_traversal_tally(self):
        n = 32
        prog = li(iterations=1, n_cells=n, data_base=0x100000)
        state, _ = run_functional(prog, max_steps=200_000)
        # Reference interpretation of the ring.
        cells_addr = 0x100000
        cur = 0
        tally = 0
        for _ in range(n):
            car = (3 * cur) & 0xFF
            tally += car if (car & 3) == 0 else -car
            cur = (cur * 5 + 1) % n
        assert state.regs[18] == tally          # s2

    def test_eqntott_comparison_tally(self):
        n = 72
        prog = eqntott(iterations=1, n=n, data_base=0x100000)
        state, _ = run_functional(prog, max_steps=200_000)
        va = ipattern(n, 13, 0xFF)
        vb = ipattern(n, 13, 0xFF)
        tally = 0
        for i in range(0, n, 9):
            vb[i] ^= 5
        for a, b in zip(va, vb):
            if a != b:
                tally += 1 if a > b else -1
        assert state.regs[18] == tally


class TestFootprints:
    def test_btrix_touches_many_pages(self):
        prog = btrix(iterations=1, data_base=0x100000)
        _, mem = run_functional(prog, max_steps=1_000_000)
        pages = {a * 4 // 4096 for a in mem.words}
        assert len(pages) >= 20     # more pages than the fast TLB holds

    def test_gmtry_footprint_exceeds_fast_l1(self):
        prog = gmtry(iterations=1, data_base=0x100000)
        assert prog.data.size_bytes > 8 * 1024

    def test_scale_parameter_shrinks(self):
        small = mxm(iterations=1, scale=0.25)
        large = mxm(iterations=1, scale=1.0)
        assert small.data.size_bytes < large.data.size_bytes
