"""Cold start of the program: a fresh interpreter imports ``fiberxtalk.cli`` and
loads one workload's inputs through the program's own loaders.

    PYTHONPATH=src python3 perfbench/coldstart.py WORKLOAD INPUT_DIR

The benchmark times this whole process from outside as ``setup_s``.
"""

import json
import sys
from pathlib import Path


def main() -> None:
    workload, inp = sys.argv[1], Path(sys.argv[2])
    from fiberxtalk import cli, tagio

    if workload == "otdr-sim":
        for plant in ("lab", "campus"):
            cli.load_topology(inp / f"{plant}_topology.json")
            cli.PulsedSource(**json.loads((inp / f"{plant}_source.json").read_text()))
            cli.Detector(**json.loads((inp / f"{plant}_detector.json").read_text()))
    elif workload == "capture-analyze":
        cli.load_topology(inp / "topology.json")
        meta = tagio.read_metadata(inp / "capture.xtt1")
        cli.PulsedSource(**meta["source"])
        cli.Detector(**meta["detector"])
    elif workload == "scan-plan":
        for line in json.loads((inp / "lines.json").read_text()):
            cli.LeakLine(**line)
        cli.SwitchModel(table=cli.load_measured_table(inp / "table.csv"))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main()
