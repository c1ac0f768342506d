"""One benchmark job in a fresh process: set up, run, check, report.

    python3 perfbench/job.py --workload NAME --seed N --shape full|tiny
        --mode job|setup --trace 0|1 --workdir DIR --result FILE

Set-up time runs from the first statement of this file, so it covers the
imports of numpy and perfest and the workload's input building. The
result is one JSON object written to FILE; the exit code is 1 if the job
raised.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def blas_info():
    """BLAS library name, version and the thread count it reports."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shape", default="quick",
                        choices=("quick", "full", "tiny"))
    parser.add_argument("--mode", default="job", choices=("job", "setup"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    setup, job, check = workloads.WORKLOADS[args.workload]
    shape = workloads.SHAPES[args.workload][args.shape]
    result = {"mode": args.mode, "traced": bool(args.trace), "error": None}
    code = 0
    try:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        inputs = setup(shape, args.seed, args.workdir)
        result["setup_s"] = time.perf_counter() - T0
        result["blas"] = blas_info()
        if args.mode == "job":
            start, cpu = time.perf_counter(), time.process_time()
            out = job(shape, args.seed, inputs, args.workdir)
            result["job_s"] = time.perf_counter() - start
            result["job_cpu_s"] = time.process_time() - cpu
            if tracer is not None:
                # checks run below would add spans of their own
                result["traced_s"] = time.perf_counter() - tracer.origin
                result["layers"] = tracer.layer_metrics()
                tables = tracer.tables()
                result["self_time"] = {
                    name: [tables["calls"][name], self_s]
                    for name, self_s in tables["self"].items()}
                result["spans"] = tracer.spans
            checks, est_mae, digest = check(shape, args.seed, inputs, out,
                                            args.workdir)
            result.update(checks=checks, est_mae=est_mae, digest=digest)
    except Exception:  # reported to run.py, which counts the failure
        result["error"] = traceback.format_exc()
        code = 1
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss * 1024 / 1e6)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
