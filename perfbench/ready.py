"""Set-up probe: import the CLI, load the given configs, then print "ready".

Usage: python3 perfbench/ready.py CONFIG...
       python3 perfbench/ready.py --baseline

With --baseline it imports numpy alone: the launch that calibrate.py uses
as the reference for set-up time.
"""

import sys

if sys.argv[1:] == ["--baseline"]:
    import numpy  # noqa: F401
else:
    from hirotalab import cli

    for path in sys.argv[1:]:
        cli.load_config(path)
print("ready", flush=True)
