"""One shellbound CLI job in a fresh process, as a user runs it.

    python3 perfbench/child.py [--trace SPANS ITEM] -- <shellbound arguments>

The exit code is the CLI's.  The first line on standard error is
"ready <time.monotonic()>", stamped once `import shellbound.cli` is done:
the set-up every job pays ends there.  --trace records layer spans under
item ITEM and writes them to SPANS at exit.  The package is found through
PYTHONPATH, which run.py points at the checkout's src/.
"""

import sys
import time

import shellbound.cli

print(f"ready {time.monotonic()!r}", file=sys.stderr, flush=True)

if __name__ == "__main__":
    argv = sys.argv[1:]
    tracer = None
    if argv[:1] == ["--trace"]:
        import tracer as tracing

        spans_path, item = argv[1], argv[2]
        argv = argv[3:]
        tracer = tracing.Tracer()
        tracer.install()
        tracer.set_item(item)
    if argv[:1] != ["--"]:
        sys.exit(f"usage: {__doc__}")
    if tracer is None:
        sys.exit(shellbound.cli.main(argv[1:]))
    with tracer.span("cli.main"):
        code = shellbound.cli.main(argv[1:])
    tracer.uninstall()
    tracer.save(spans_path)
    sys.exit(code)
