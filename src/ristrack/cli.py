"""Command-line entry point: `ristrack run` and `ristrack sweep`.

Exit codes: 0 success, 1 configuration error, 2 runtime error. The output
directory can be overridden with the RISTRACK_OUTDIR environment variable or
--out.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .runner import run_scenario, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ristrack",
        description="Link-level simulator of RIS-assisted mmWave downlink beam tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("config", help="scenario file (INI; empty file = defaults)")
    run_p.add_argument("--out", default=None, help="output directory override")

    sweep_p = sub.add_parser("sweep", help="re-run a scenario for several parameter values")
    sweep_p.add_argument("config", help="scenario file")
    sweep_p.add_argument(
        "--vary", required=True, metavar="PARAM=V1,V2,...",
        help="parameter to vary, e.g. gamma=0.9,0.8,0.5 or n_sol=1,3,5,7",
    )
    sweep_p.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "run":
            results = run_scenario(cfg, out_dir=args.out)
            for r in results:
                print(f"{r.policy_name} seed={r.seed}: {r.n_slots} slots, "
                      f"{r.metrics.tracking_calls} tracking calls, "
                      f"{r.metrics.pct_below_threshold:.4g}% below threshold, "
                      f"final rate {r.metrics.final_cum_rate:.6g}")
            return 0
        param, _, values = args.vary.partition("=")
        if not values:
            raise ConfigError("--vary needs PARAM=V1,V2,...")
        raw_values = [v.strip() for v in values.split(",") if v.strip()]
        if not raw_values:
            raise ConfigError("--vary got an empty value list")
        sweep_path = run_sweep(cfg, param.strip(), raw_values, out_dir=args.out)
        print(f"sweep summary written to {sweep_path}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
