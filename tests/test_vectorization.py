#!/usr/bin/env python3
"""Vectorization gate for the measurement's hot pair loops (GCC only).

The min-image row kernels (src/particle/min_image_kernel.h) and the Ewald
structure-factor k loop (src/hamiltonian/ewald.cpp) are written so GCC
vectorizes them at any x86-64 target, from the compiler's default (SSE2)
to the build host's ISA. A libm call, an inner loop or a trapping compare
slipped back in would silently return them to scalar code with unchanged
results, so no parity test can notice. This gate compiles them with the
library's Release flags plus -fopt-info-vec-optimized, once at the
compiler's default target and once with the build's target flags, and
fails unless GCC reports every one of those loops vectorized at both:
both row kernels in float and in double, and the k loop of both
structure_factor instantiations. A portable build therefore keeps
vectorizing as well as a host-tuned one.

Usage (CTest passes the compiler, the library's flags and, after `--`,
the build's target flags; with none after `--` only the default target
is checked):

    python3 tests/test_vectorization.py CXX FLAG... [-- TARGET_FLAG...]
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = "src/particle/min_image_kernel.h"
EWALD = "src/hamiltonian/ewald.cpp"

PROBE = """#include "particle/min_image_kernel.h"
using T = QMCXX_PROBE_T;
void probe(const qmcxx::MinImageKernel<T>& m, const T* x, const T* y, const T* z, int n, T* d,
           T* dx, T* dy, T* dz)
{
  qmcxx::general_cell_row(m, x, y, z, T(0), T(0), T(0), n, d, dx, dy, dz);
  qmcxx::ortho_cell_row(m, x, y, z, T(0), T(0), T(0), n, d, dx, dy, dz);
}
"""

REPORT_RE = re.compile(r"^(\S+?):(\d+):\d+: optimized: loop vectorized", re.MULTILINE)


def simd_loop(path: str, function: str) -> range:
    """1-based lines of the loop under the first `#pragma omp simd` in
    `function`, from the `for` to its closing brace (GCC reports a
    vectorized loop at a statement inside its body)."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = next(i for i, l in enumerate(lines) if re.search(r"\bvoid\s+" + re.escape(function) + r"\(", l))
    first = next(i for i in range(start, len(lines)) if "#pragma omp simd" in lines[i]) + 1
    depth, opened = 0, False
    for last in range(first, len(lines)):
        depth += lines[last].count("{") - lines[last].count("}")
        opened = opened or "{" in lines[last]
        if opened and depth == 0:
            return range(first + 1, last + 2)
    sys.exit(f"{path}: no loop body found in {function}")


def vectorized(cxx: str, flags: list[str], source: str, defines: list[str]) -> list[tuple[str, int]]:
    with tempfile.TemporaryDirectory() as tmp:
        # No vectorized epilogues: at AVX-512 GCC reports those as a second
        # vectorized loop, and the k-loop count below needs one per loop.
        cmd = [cxx, *flags, *defines, "-I", os.path.join(ROOT, "src"), "-fopt-info-vec-optimized",
               "--param=vect-epilogues-nomask=0", "-c", source, "-o", os.path.join(tmp, "probe.o")]
        run = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if run.returncode != 0:
        sys.exit(f"compile failed: {' '.join(cmd)}\n{run.stderr}")
    return [(os.path.basename(p), int(n)) for p, n in REPORT_RE.findall(run.stderr)]


def gate(cxx: str, flags: list[str], target: str) -> list[str]:
    """Compile every gated loop with `flags`; return the ones GCC did not
    vectorize, each tagged with `target`."""
    row_loops = {fn: simd_loop(KERNELS, fn) for fn in ("general_cell_row", "ortho_cell_row")}
    rho_loop = simd_loop(EWALD, "EwaldSum::structure_factor")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        probe = os.path.join(tmp, "probe.cpp")
        with open(probe, "w", encoding="utf-8") as f:
            f.write(PROBE)
        for t in ("float", "double"):
            reports = vectorized(cxx, flags, probe, [f"-DQMCXX_PROBE_T={t}"])
            for fn, lines in row_loops.items():
                ok = any(f == "min_image_kernel.h" and n in lines for f, n in reports)
                print(f"[{target}] {fn}<{t}> ({KERNELS}:{lines.start}): "
                      f"{'vectorized' if ok else 'NOT vectorized'}")
                if not ok:
                    failures.append(f"{fn}<{t}> [{target}]")
    reports = vectorized(cxx, flags, os.path.join(ROOT, EWALD), [])
    count = sum(1 for f, n in reports if f == "ewald.cpp" and n in rho_loop)
    print(f"[{target}] EwaldSum::structure_factor k loop ({EWALD}:{rho_loop.start}): "
          f"vectorized in {count} of 2 instantiations")
    if count < 2:
        failures.append(f"EwaldSum::structure_factor [{target}]")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    args = argv[2:]
    split = args.index("--") if "--" in args else len(args)
    cxx, flags, target = argv[1], args[:split], args[split + 1:]
    failures = gate(cxx, flags, "default target")
    if target:
        failures += gate(cxx, flags + target, " ".join(target))
    if failures:
        print("not vectorized: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
