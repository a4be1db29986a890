"""One fairlens command in a fresh interpreter, with its costs.

Usage: child.py RESULT_JSON TRACE SRC [fairlens arguments...]

Imports `fairlens.cli` from SRC and times the import (set-up). With
fairlens arguments it then times `fairlens.cli.main(arguments)` until the
bundle and figures are written; with TRACE=1 the call runs under the span
tracer and the per-layer metrics and spans go into the result too. The
result JSON holds the set-up and wall times, the exit code and the peak
resident set of this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    result_path, traced, src = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, src)

    start = time.perf_counter()
    import fairlens.cli
    setup_s = time.perf_counter() - start
    if not Path(fairlens.cli.__file__).resolve().is_relative_to(
            Path(src).resolve()):
        print(f"fairlens imported from {fairlens.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    result = {"setup_s": setup_s}
    if argv:
        command = fairlens.cli.main
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            command = tracer.wrap(command, "cli.main")
        start = time.perf_counter()
        try:
            code = command(argv)
        except SystemExit as exc:  # argparse and invalid-input exits
            code = exc.code
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = code
        if traced:
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["spans"] = tracer.spans
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
