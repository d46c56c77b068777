"""One execution of a benchmark workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json`` from the checkout root, with
``src`` on ``PYTHONPATH``.  ``run.py`` writes the job file and reads back the
result file the job names.

The set-up phase is the user's fixed cost: importing ``gaborgrid``, parsing
the config and constructing the ``GaborSystem``.  The timed phase is one call
of the public CLI entry point, ``gaborgrid.cli.main``, with the job's
arguments.  Lazily built operator tables fall in the timed phase because the
CLI builds them again on every run.  Times come from ``time.monotonic``, the
system-wide clock, so the parent can measure set-up from before the
interpreter started.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)

    from gaborgrid.cli import load_config

    cfg = load_config(job["config"])
    system = cfg.make_system()
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    if job["mode"] == "run":
        tracer = None
        if job["trace"]:
            from layertrace import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        from gaborgrid.cli import main as cli_main

        start = time.monotonic()
        code = cli_main(job["argv"])
        end = time.monotonic()
        result.update(
            start=start,
            end=end,
            exit_code=code,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            tables_bytes=system.grid.size
            * (system.time_lattice.count + system.freq_lattice.count) * 16,
        )
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            result["spans"] = tracer.spans()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
