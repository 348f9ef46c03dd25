"""Run one mixreg CLI command with span tracing.

    python3 bench/traced_cli.py SPANS_OUT RUN_ID <mixreg CLI arguments>

Times `import mixreg.cli`, installs the tracer from spans.py, runs the
command, and writes the spans with marshal to SPANS_OUT and the time that
took to SPANS_OUT.write_s.  The exit code is the CLI's.
"""

import marshal
import sys
import time

import spans


def main() -> int:
    out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import mixreg.cli
    from mixreg.parallel import worker_count
    import_s = time.perf_counter() - start
    tracer = spans.Tracer(run_id)
    spans.install(tracer)
    code = mixreg.cli.cli_main(argv)
    end = time.perf_counter()
    with open(out, "wb") as fh:
        marshal.dump({"run_id": run_id, "import_s": import_s,
                      "workers": worker_count(), "spans": tracer.spans}, fh)
    # Writing the spans is not part of the traced command's time.
    with open(out + ".write_s", "w") as fh:
        fh.write(repr(time.perf_counter() - end))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
