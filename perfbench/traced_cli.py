"""Run the cevlab CLI with every layer boundary traced.

    python3 perfbench/traced_cli.py SPANS_FILE <cevlab arguments ...>

Behaves like ``python3 -m cevlab <arguments>`` and, when the CLI returns,
writes the recorded spans to SPANS_FILE.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    absent = tracing.install(recorder)
    from cevlab.cli import main as cli_main

    code = cli_main(argv)
    recorder.dump(spans_path, absent)
    return code


if __name__ == "__main__":
    sys.exit(main())
