"""Fresh-interpreter probe started by run.py.

Imports combinf from the given source directory, runs the warm-up command
lines, prints "ready" (run.py times the set-up up to that line), then runs
the batch and prints its exit codes and the process's peak resident memory.

    python3 perfbench/child.py SRC_DIR WARMUP_JSON BATCH_JSON
"""

import contextlib
import io
import json
import resource
import sys


def main() -> None:
    src, warmup, batch = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
    sys.path.insert(0, src)
    from combinf import cli

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    rcs = [call(argv) for argv in warmup]
    print("ready", flush=True)
    rcs += [call(argv) for argv in batch]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rcs": rcs, "maxrss_kib": peak}), flush=True)


if __name__ == "__main__":
    main()
