"""One fresh-process pass of a benchmark workload; started by run.py.

Set-up is timed from the top of this file: importing fpplab (numpy,
scipy) and loading and parsing every config of the workload.  Modes:

* ``setup``  time the set-up and stop;
* ``run``    then run every config through ``fpplab.cli.main(["run", ...])``
             and time each from its call to its return, artifacts written;
* ``trace``  the same with the layer hooks of tracer.py installed.

Every mode also times a fixed reference kernel that touches no fpplab code
right after set-up and, in a pass, after each config, so run.py can divide
the host's momentary speed out of those times.  The result (timings, peak
RSS, exit codes, exceptions and, when traced, the span summary) is written
as JSON to ``--result``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def reference_s() -> float:
    """Median of 3 timings of a fixed mix of interpreter loops, scalar numpy
    calls and FFTs: work of the kinds set-up and the oracle do, without fpplab."""
    import numpy as np
    times = []
    for _ in range(3):
        t = time.perf_counter()
        s = 0
        for i in range(350_000):
            s += i * i
        for _ in range(3500):
            np.ndim(np.asarray(0.5) ** 2.0)
        x = np.linspace(0.0, 1.0, 16384)
        for _ in range(100):
            x = np.fft.ifft(np.fft.fft(x)).real
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True, help="directory holding the fpplab package")
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--out", help="artifact directory, one subdirectory per config")
    ap.add_argument("--spans", help="where a traced pass writes its spans (CSV)")
    ap.add_argument("configs", nargs="+")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from fpplab import cli, scenarios
    if src not in Path(scenarios.__file__).resolve().parents:
        raise SystemExit(f"fpplab imported from {scenarios.__file__}, not from {src}")
    for path in args.configs:
        with open(path) as fh:
            scenarios.parse_config(json.load(fh))
    setup_s = time.perf_counter() - T0

    references = [reference_s()]
    result = {"setup_s": setup_s, "reference_s": references,
              "numpy": sys.modules["numpy"].__version__,
              "scipy": sys.modules["scipy"].__version__}
    if args.mode != "setup":
        if args.mode == "trace":
            from tracer import Tracer
            hooks = Tracer()
        else:
            hooks = contextlib.nullcontext()
        runs = []
        with hooks as tracer:
            for i, path in enumerate(args.configs):
                name = Path(path).stem
                if tracer is not None:
                    tracer.run_id = i
                t1 = time.perf_counter()
                try:
                    code, error = cli.main(["run", path, "--output-dir",
                                            str(Path(args.out) / name), "--quiet"]), None
                except Exception:
                    code, error = None, traceback.format_exc()
                runs.append({"name": name, "exit": code, "error": error,
                             "wall_s": time.perf_counter() - t1})
                references.append(reference_s())
        result.update(runs=runs,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
