"""Time pdlab's pooled tasks inline and on a pool, grid by grid.

    PYTHONPATH=src python tools/pool_sweep.py [--reps 9] [--threads 2] [--only SITE]

One workload per kind of pool task:

- split: `paradiff_split` of `elementary:seed=1` on `random:band=0.4,seed=1`
  (the `dense-tables` inputs), one pool map per series, on 1-d grids
  2^10-2^18 and 2-d grids 32-128;
- continuity: `run_continuity_table` of `ching:d=0,theta=+1,jmax=auto` with
  the `lacunary-1d` cases on grids (64, N), two trials, one pool map per
  grid, for N = 2^10-2^18;
- vfm: `vfm_limit` of `elementary:seed=1,J=4` on the split's input, one
  pool task per (psi, m), a cut call of the symbol's one plan, on 1-d grids
  2^10-2^16 and 2-d 32-128;
- embedding: `embedding_report` over four `random_band_limited` members,
  one pool task per member, on 1-d grids 2^10-2^16;
- maximal: `maximal_lp_constant` (p = N = 2) over six `random_band_limited`
  members, one brute-force Peetre maximal function per pool task, on 1-d
  grids 2^6-2^18 and 2-d grids 16-256;
- moment: `moment_decay_check` of `ching:d=0,theta=+1,jmax=auto` (theta=e1
  in 2-d) with the `pointwise moment-decay` defaults (Q = 2, 4, 8, 16, one
  pool task per Q), on 1-d grids 2^7-2^12 and 2-d grids 16-64: each task
  runs `symbol_factor` over N^n x N^n kernel entries;
- probes: the `experiment sigma` onset sweep's applies, `plan` of
  `ching:d=0,theta=+1,jmax=auto` on the modes 2^j + 1, one pool task per
  mode, on 1-d grids 2^9-2^16;
- sigma: `sigma_order_estimate` of `ching:d=0,theta=+1,jmax=auto`, alphas
  0 and 1, one pool task per eps: its dense route (the symbol as a
  `TabulatedSymbol`; each task localizes an N^n x N^n table) on 1-d grids
  2^6-2^11, and its Gram route (the Ching symbol's shift terms) on 1-d
  grids 2^8-2^14.

Each call runs once inline (PDLAB_THREADS=1) and once on a pool of
--threads workers (the pool gate patched to 0), alternating, --reps times
after one warm call of each; the table gives the medians in ms, their
ratio and the work, in grid points, that the site passes to `pmap` as
`points`.  `_threads.POOL_GUARD` and the sites' work measures are set from
it: the pool should run exactly where it stops losing.
"""
from __future__ import annotations

import argparse
import os
import statistics
import time

import numpy as np

import pdlab._threads as threads
from pdlab.cli import make_input, symbol_factory
from pdlab.experiments import run_continuity_table
from pdlab.frame import DEFAULT_FRAME
from pdlab.grid import GridSpec, as_values, random_band_limited, spectrum_from_coeffs
from pdlab.operators import paradiff_split, plan, vfm_limit
from pdlab.pointwise import MaximalParams, maximal_lp_constant, moment_decay_check
from pdlab.spaces import embedding_report
from pdlab.symbols import TabulatedSymbol, sigma_order_estimate

CASES = [("F:s=0,p=2,q=1", "L:p=2"), ("B:s=0,p=2,q=2", "L:p=2")]


def ching(spec: GridSpec):
    theta = "+1" if spec.n == 1 else "e1"
    return symbol_factory(f"ching:d=0,theta={theta},jmax=auto", DEFAULT_FRAME)(spec)


def corpus(spec: GridSpec, size: int) -> list:
    return [random_band_limited(spec, 0.25 * (spec.N // 2), np.random.default_rng([7, t]))
            for t in range(size)]


def split_call(spec: GridSpec):
    a = symbol_factory("elementary:seed=1", DEFAULT_FRAME)(spec)
    u = as_values(make_input("random:band=0.4,seed=1", spec, 1))
    return lambda: paradiff_split(a, u)


def continuity_call(spec: GridSpec):
    return lambda: run_continuity_table(ching, CASES, grids=(64, spec.N), trials=2, seed=1)


def vfm_call(spec: GridSpec):
    a = symbol_factory("elementary:seed=1,J=4", DEFAULT_FRAME)(spec)
    u = as_values(make_input("random:band=0.4,seed=1", spec, 1))
    return lambda: vfm_limit(a, u)


def embedding_call(spec: GridSpec):
    members = corpus(spec, 4)
    return lambda: embedding_report(members)


def maximal_call(spec: GridSpec):
    members = corpus(spec, 6)
    return lambda: maximal_lp_constant(members, 2.0, 2.0)


def moment_call(spec: GridSpec):
    a, params = ching(spec), MaximalParams(N_exp=2.0, R_spec=spec.N / 8.0)
    return lambda: moment_decay_check(a, params, (2.0, 4.0, 8.0, 16.0), 2, spec=spec)


def probes_call(spec: GridSpec):
    op = plan(ching(spec), spec)
    modes = [2**j + 1 for j in range(4, spec.N.bit_length() - 2)]
    probes = [spectrum_from_coeffs(spec, {m: 1.0}) for m in modes]
    return lambda: threads.pmap(op, probes, points=spec.npoints)


def sigma_call(dense: bool):
    def make(spec: GridSpec):
        b = ching(spec)
        sym = TabulatedSymbol(spec, b.table(spec), d=b.d) if dense else b
        return lambda: sigma_order_estimate(sym, (0, 1), spec=spec)
    return make


def gram_rows(spec: GridSpec) -> int:
    return len({t.xi for t in ching(spec).shift_terms(spec)})


def grids(n: int, sizes) -> list[GridSpec]:
    return [GridSpec(n, N) for N in sizes]


def powers(lo: int, hi: int) -> range:
    return range(lo, hi + 1)


# name -> (grids, call factory, the work pmap is told per task)
SITES = {
    "split": (grids(1, [2**k for k in powers(10, 18)]) + grids(2, [32, 64, 128]),
              split_call, lambda s: s.npoints),
    "continuity": (grids(1, [2**k for k in powers(10, 18)]), continuity_call,
                   lambda s: s.npoints),
    "vfm": (grids(1, [2**k for k in powers(10, 16)]) + grids(2, [32, 64, 128]),
            vfm_call, lambda s: 2 * s.npoints),
    "embedding": (grids(1, [2**k for k in powers(10, 16)]), embedding_call,
                  lambda s: s.npoints),
    "maximal": (grids(1, [2**k for k in powers(6, 18)]) + grids(2, [16, 32, 64, 128, 256]),
                maximal_call, lambda s: s.npoints // 8),
    "moment": (grids(1, [2**k for k in powers(7, 12)]) + grids(2, [16, 32, 64]),
               moment_call, lambda s: s.npoints**2 // 16),
    "probes": (grids(1, [2**k for k in powers(9, 16)]), probes_call, lambda s: s.npoints // 4),
    "sigma dense": (grids(1, [2**k for k in powers(6, 11)]), sigma_call(True),
                    lambda s: s.npoints**2),
    "sigma Gram": (grids(1, [2**k for k in powers(8, 14)]), sigma_call(False),
                   lambda s: s.npoints * gram_rows(s) ** 2),
}


GUARD = threads.POOL_GUARD  # read before main patches it


def timed(call, pooled: bool, workers: int) -> float:
    os.environ["PDLAB_THREADS"] = str(workers if pooled else 1)
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def sweep(name: str, spec: GridSpec, call, work: int, reps: int, workers: int) -> str:
    for pooled in (False, True):  # warm: frame caches, plans, FFT twiddles
        timed(call, pooled, workers)
    inline, pool = [], []
    for _ in range(reps):
        inline.append(timed(call, False, workers))
        pool.append(timed(call, True, workers))
    a, b = statistics.median(inline) * 1e3, statistics.median(pool) * 1e3
    side = "pool" if work >= GUARD else "inline"
    return (f"| {name} | {spec.n}-d {spec.N} | {a:.1f} | {b:.1f} | {b / a:.2f} "
            f"| {work} | {side} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--only", choices=tuple(SITES), help="run one site only")
    args = parser.parse_args()
    threads.POOL_GUARD = 0  # PDLAB_THREADS alone picks inline or pooled
    print(f"{os.cpu_count()} CPUs, {args.reps} alternating pairs after one warm call each; "
          f"pmap pools at points >= {GUARD}")
    print(f"| site | grid | inline ms | pooled ({args.threads}) ms | pooled / inline "
          "| points | pmap runs |")
    print("|---|---|---|---|---|---|---|")
    for name, (specs, make, work) in SITES.items():
        if args.only in (None, name):
            for spec in specs:
                print(sweep(name, spec, make(spec), work(spec), args.reps, args.threads),
                      flush=True)


if __name__ == "__main__":
    main()
