"""One cold ncparab command in this fresh process, timed.

    python3 child.py run SRC SPAWN RESULT TRACE CONFIG -- <ncparab argv>
    python3 child.py env SRC

``run`` imports ncparab from SRC, loads CONFIG, then calls ``cli.main`` on
the argv after ``--`` and writes a JSON record to RESULT. SPAWN is the
parent's ``time.monotonic()`` just before it started this process; on Linux
that clock is shared by all processes, so ``setup_s`` covers interpreter
start, imports and config loading. With TRACE = 1 the public entry points are
wrapped in spans first (see spans.py). ``env`` prints the environment a
result was measured in, and in passing warms the file cache and byte-code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run(src: str, spawn: str, result_path: str, trace: str, config: str, argv: list) -> int:
    sys.path.insert(0, src)
    import ncparab.cli as cli
    from ncparab.config import RunConfig

    RunConfig.load(config)
    setup_s = time.monotonic() - float(spawn)

    tracer = None
    if trace == "1":
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if tracer is None:
        rc = cli.main(argv)
    else:
        rc = tracer.call(ROOT, cli.main, argv)
    wall_s = time.perf_counter() - start

    record = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record.update(tracer.summary())
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


def env(src: str) -> int:
    sys.path.insert(0, src)
    import ncparab.cli  # noqa: F401
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(
        json.dumps(
            {
                "nproc": len(os.sched_getaffinity(0)),
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
                "pinning": {v: os.environ.get(v) for v in PIN_VARS},
            }
        )
    )
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "env":
        sys.exit(env(sys.argv[2]))
    sep = sys.argv.index("--")
    sys.exit(run(*sys.argv[2:sep], sys.argv[sep + 1 :]))
