"""Run one ``regarch`` command in this fresh process, as the CLI would.

Usage: python launch.py RECORD_JSON [--trace] -- REGARCH_ARGS...

Writes to RECORD_JSON the monotonic clock at the moment the command
function is entered (after the interpreter, ``import regarch.cli`` and
argument parsing) and when ``main`` returns, the process's peak resident memory (``VmHWM``: unlike
``ru_maxrss`` it does not carry over the launching process's memory
across ``exec``), and with
``--trace`` the span report of ``tracer.Tracer``.
"""

import json
import sys
import time


def peak_rss_kb():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    split = sys.argv.index("--")
    record_path, flags = sys.argv[1], sys.argv[2:split]
    argv = sys.argv[split + 1 :]

    from regarch import cli

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    record = {}
    name = "cmd_" + argv[0]
    command = getattr(cli, name)

    def timed(args):
        record["begin"] = time.monotonic()
        return command(args)

    setattr(cli, name, timed)
    code = cli.main(argv)
    record["end"] = time.monotonic()
    record["maxrss_kb"] = peak_rss_kb()
    if tracer:
        record["trace"] = tracer.report()
    with open(record_path, "w", encoding="utf-8") as out:
        json.dump(record, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
