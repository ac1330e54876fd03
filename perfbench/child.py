"""One benchmark operation: a fresh process that runs one CLI command.

Usage: child.py SPAWN_TIME RESULT_JSON TRACE SRC_DIR CPU -- CLI_ARGS...

CPU is the one CPU the process keeps to. SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide, so ``setup_s`` spans interpreter start and the import of the
program, numpy and scipy. ``wall_s`` runs from the call of
``tokenimpact.cli.main`` to its return, when every artifact is written.
``ref_s`` times the fixed work of ``reference.py`` right before and right
after the command, on the same CPU.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spawn_time, result_path, trace, src_dir, cpu = sys.argv[1:6]
    os.sched_setaffinity(0, {int(cpu)})
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    import tokenimpact.cli

    if not tokenimpact.cli.__file__.startswith(src_dir):
        print(f"tokenimpact imported from {tokenimpact.cli.__file__}, not {src_dir}",
              file=sys.stderr)
        return 2
    setup_end = time.monotonic()
    from reference import Reference

    # built again after the command, so that its arrays stay out of the
    # command's resident set
    ref_before = Reference().time()
    tracer = None
    if trace == "1":
        from tracer import COMMAND, Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.open(COMMAND)
    start = time.monotonic()
    rc = tokenimpact.cli.main(cli_args)
    end = time.monotonic()
    if tracer is not None:
        tracer.close(span)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "setup_s": setup_end - float(spawn_time),
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "ref_s": [ref_before, Reference().time()],
    }
    if tracer is not None:
        result.update(spans=tracer.spans, installed=tracer.installed, missing=tracer.missing)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
