"""One set-up, timed in a fresh interpreter: import the CLI, parse the inputs, warm up.

Usage: python3 probe_setup.py SRC_DIR INPUTS_JSON WORK_DIR

Prints the import, parse and warm-up times as one JSON object. The caller
times the whole process, interpreter start included.
"""

import json
import sys
import time

start = time.perf_counter()
src, inputs, work_dir = sys.argv[1:4]
sys.path.insert(0, src)

import infotrap.cli  # noqa: E402  (timed: this is what every CLI call pays)

imported = time.perf_counter()
from infotrap import scenarios  # noqa: E402

scenarios.parse_scenario_file(inputs)
parsed = time.perf_counter()

from pathlib import Path  # noqa: E402

from workloads import warm_up  # noqa: E402

warm_up(Path(work_dir))
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported, "warm_s": done - parsed}))
