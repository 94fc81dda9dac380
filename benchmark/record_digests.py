"""Record the stdout digest of every argv a session stream can hold.

    python3 benchmark/record_digests.py

Run it at the commit whose CLI output is the reference: the session workload
then fails every request whose stdout is not byte-identical to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from wonderful.cli import main as cli

    from workloads import DIGESTS, digest, run_cli, session_universe

    digests = {}
    for argv in session_universe():
        code, out = run_cli(cli, argv)
        if code != 0:
            print("exit code %s for %s" % (code, argv), file=sys.stderr)
            return 1
        digests[argv] = digest(out)
    DIGESTS.write_text("{\n" + ",\n".join(
        "%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in digests.items()) + "\n}\n")
    print("recorded %d digests in %s" % (len(digests), DIGESTS.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
