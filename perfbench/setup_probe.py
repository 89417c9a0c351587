"""Set-up cost a command-line user pays on every call, in a fresh interpreter.

Times ``import thermaljcm.cli`` plus parsing the configuration of each
operation given on the command line (``preset:<name>`` or ``config:<path>``)
and prints the seconds taken.  Usage, from the repository root with
``PYTHONPATH=src``::

    python perfbench/setup_probe.py preset:fig4a config:perfbench/inputs/fig1a_oracle.json
"""

import sys
import time

start = time.perf_counter()
import thermaljcm.cli as cli  # noqa: E402
import json  # noqa: E402

for spec in sys.argv[1:]:
    kind, _, value = spec.partition(":")
    if kind == "preset":
        cli.parse_config(cli.build_preset(value))
    else:
        with open(value, encoding="utf-8") as fh:
            cli.parse_config(json.load(fh))
print(time.perf_counter() - start)
