"""Command line front end.

Verbs:
  run <scenario> [--out PATH] [--timings]   execute and print the report
  dump-spectrum <scenario> <query-id> <out> write one spectrum as CSV
  gallery                                   list models and generators

Exit codes: 0 ok, 2 parse or command-line usage error, 3 unsupported model
or generator, 4 incompatible model/query, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (
    IncompatibleModel,
    IncompatibleQuery,
    NumericError,
    ParseError,
    UnsupportedModel,
)
from .gallery import FAMILY_GENERATORS, MODEL_NAMES
from .scenario import dump_spectrum_csv, load_scenario, report_text, run_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INCOMPATIBLE = 4
EXIT_NUMERIC = 5


@functools.cache  # also called once per fresh interpreter by perfbench/run.py's SETUP_CODE
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfam",
        description="spectra and invertibility through families of representations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute a scenario and print its report")
    run.add_argument("scenario", help="path to the scenario file")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument(
        "--timings",
        action="store_true",
        help="include wall time (makes the report nondeterministic)",
    )

    dump = sub.add_parser("dump-spectrum", help="write one spectrum query as CSV")
    dump.add_argument("scenario", help="path to the scenario file")
    dump.add_argument("query_id", help="id of a spectrum-producing query")
    dump.add_argument("out", help="output CSV path")

    sub.add_parser("gallery", help="list model names and family generators")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    text = report_text(run_scenario(scenario, with_timing=args.timings))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_dump(args) -> int:
    scenario = load_scenario(args.scenario)
    text = dump_spectrum_csv(scenario, args.query_id)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_OK


def _cmd_gallery() -> int:
    print("models:")
    for name in MODEL_NAMES:
        print(f"  {name}")
    print("family generators:")
    for name in FAMILY_GENERATORS:
        print(f"  {name}")
    return EXIT_OK


def main(argv=None) -> int:
    """Callable many times (the parser is built on first use); usage errors exit 2 via SystemExit."""
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "dump-spectrum":
            return _cmd_dump(args)
        return _cmd_gallery()
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as err:
        print(f"cannot read or write: {err}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedModel as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (IncompatibleModel, IncompatibleQuery) as err:
        print(f"incompatible: {err}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except NumericError as err:
        print(f"numeric failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
