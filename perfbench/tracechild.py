"""Run one cylpart CLI job under the layer tracer.

Usage (from the root of the checkout):

    python perfbench/tracechild.py TRACE_OUT.json.gz <cylpart arguments...>

Stdout and the exit code are the CLI's own; the trace of the job is
written to TRACE_OUT.json.gz when it ends.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from spans import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import cylpart.cli
    tracer.cache_start()
    try:
        code = cylpart.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.cache_stop()
        tracer.stop_gc()
        tracer.write(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
