"""One benchmark pass in a fresh interpreter, started by run.py.

    python3 worker.py pass SPEC.json RESULT.json
    python3 worker.py setup SPEC.json RESULT.json
    python3 worker.py reference SPEC.json RESULT.json

`pass` times the set-up every CLI invocation pays (import `pdlab.cli` and
build its parser), then calls `pdlab.cli.main(argv)` for each step in
sequence inside the spec's directory, capturing each step's exit code and
output.  With "trace" set to "spans" or "memory" it first installs the
outside-in tracer (memory: tracemalloc too).  A "spans" pass afterwards
times one FFT round trip on every grid apply_auto ran on, outside any span.

`setup` only times that set-up.  `reference` checks apply_auto against the reference quadrature `apply` and
records the numpy build.  Both write one JSON result file.
"""
from __future__ import annotations

import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROUNDTRIP_MIN_S = 0.2  # per grid: repeat the round trip for at least this long


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _run_step(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
    return {
        "argv": argv,
        "rc": rc,
        "seconds": time.perf_counter() - t0,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def _roundtrips(grids, originals) -> dict:
    import numpy as np
    from pdlab.grid import GridFunction, GridSpec

    fwd, inv = originals["grid.fft_forward"], originals["grid.fft_inverse"]
    rng = np.random.default_rng(0)
    out = {}
    for key in sorted(grids):
        n, N = (int(x) for x in key.split("x"))
        spec = GridSpec(n, N)
        u = GridFunction(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
        times = []
        start = time.perf_counter()
        while len(times) < 5 or time.perf_counter() - start < ROUNDTRIP_MIN_S:
            t0 = time.perf_counter()
            inv(fwd(u))
            times.append(time.perf_counter() - t0)
        out[key] = statistics.median(times)
    return out


def _setup():
    """Import pdlab.cli and build its parser: the module and the seconds."""
    t0 = time.perf_counter()
    cli = importlib.import_module("pdlab.cli")
    cli.build_parser()
    return cli, time.perf_counter() - t0


def run_pass(spec: dict) -> dict:
    cli, setup_s = _setup()

    tracer = None
    if spec.get("trace"):
        import tracemalloc

        from tracer import APPLY_AUTO, Tracer  # beside this script, on sys.path

        tracer = Tracer(memory=spec["trace"] == "memory")
        tracer.install()
        if tracer.memory:
            tracemalloc.start()

    os.chdir(spec["dir"])
    steps = []
    cpu0 = time.process_time()
    first = time.perf_counter()
    for argv in spec["steps"]:
        steps.append(_run_step(cli, list(argv)))
    wall_s = time.perf_counter() - first
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": time.process_time() - cpu0,  # all threads of the process
        "maxrss_mb": _maxrss_mb(),
        "steps": steps,
    }

    if tracer is not None:
        result["spans"] = tracer.spans
        result["max_live_threads"] = tracer.max_live_threads
        if tracer.memory:
            tracemalloc.stop()
        else:
            grids = {s[6]["grid"] for s in tracer.spans if s[1] == APPLY_AUTO and s[6]}
            result["roundtrip_s"] = _roundtrips(grids, tracer.originals)
    return result


def run_reference(spec: dict) -> dict:
    import numpy as np
    from pdlab.cli import make_input, symbol_factory
    from pdlab.frame import DEFAULT_FRAME
    from pdlab.grid import GridSpec
    from pdlab.operators import apply, apply_auto

    cases = []
    for symbol, n, N in spec["cases"]:
        grid = GridSpec(n, N)
        a = symbol_factory(symbol, DEFAULT_FRAME)(grid)
        u = make_input(spec["input"], grid)
        ref = apply(a, u).values
        err = float(np.max(np.abs(apply_auto(a, u).values - ref)) / np.max(np.abs(ref)))
        cases.append({"symbol": symbol, "grid": f"{n}x{N}", "rel_err": err})
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 2 prints its config instead
        blas = None
    return {"cases": cases, "numpy": np.__version__, "blas": blas}


def main(argv: list) -> int:
    mode, spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    if mode == "pass":
        result = run_pass(spec)
    elif mode == "setup":
        result = {"setup_s": _setup()[1]}
    else:
        result = run_reference(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
