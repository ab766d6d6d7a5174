"""Fresh-interpreter side of the benchmark; run.py starts one process per sample.

    python3 perfbench/child.py setup <inputs dir>
        import fractalis, then read and parse_config every config (no model is built)
    python3 perfbench/child.py pass <workload> <inputs dir> <out dir> <status file>
        run one workload pass and write its per-op results to <status file>
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv):
    sys.path.insert(0, str(HERE.parent / "src"))
    if argv[0] == "setup":
        import json

        import fractalis.config

        for path in sorted(Path(argv[1]).glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                fractalis.config.parse_config(json.load(fh))
        return 0
    if argv[0] == "pass":
        import json

        sys.path.insert(0, str(HERE))
        import workloads

        results = workloads.run_pass(argv[1], Path(argv[2]), Path(argv[3]))
        Path(argv[4]).write_text(json.dumps(results), encoding="utf-8")
        return 0
    print(f"unknown mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
