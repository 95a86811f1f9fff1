"""Command-line interface: classify states, dump flow traces, run demos.

Exit codes: 0 success, 2 input error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__
from .critical import CriticalRecord, classify_with_trace
from .errors import NotConverged, SloccFlowError, UnknownDemo
from .demos import run_demo
from .flow import STEP_SIZE, FlowConfig, FlowTrace, flow_to_critical
from .statespace import PureState, state_from_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3


@dataclass
class Report:
    """Classification report: inputs, invariants, trace summary, provenance."""

    input_descriptor: dict
    record: CriticalRecord
    trace: FlowTrace
    config: FlowConfig
    seed: int

    def to_json(self) -> dict:
        samples = self.trace.samples
        return {
            "input": self.input_descriptor,
            "record": self.record.to_json(),
            "trace_summary": {
                "iterations": samples[-1][0] if samples else 0,
                "samples": len(samples),
                "converged": self.trace.converged,
                "stopped_on": self.trace.stopped_on,
                "final_mu_norm_sq": samples[-1][1] if samples else None,
                "final_grad_norm": samples[-1][2] if samples else None,
                "best_grad_norm": self.trace.best_grad_norm,
                "mu_norm_sq_at_best_grad": self.trace.mu2_at_best_grad,
            },
            "config": {
                "step_size": self.config.step_size,
                "tolerance": self.config.tolerance,
                "max_iterations": self.config.max_iterations,
                "record_every": self.config.record_every,
                "seed": self.seed,
            },
            "version": __version__,
        }


def _add_flow_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--step",
        type=float,
        default=STEP_SIZE,
        help=f"sizes no move (the flow's moves size themselves); any value but {STEP_SIZE} "
        "is an input error",
    )
    parser.add_argument(
        "--tol", type=float, default=1e-9, help="gradient-norm tolerance"
    )
    parser.add_argument(
        "--max-iter", type=int, default=200_000, help="iteration cap"
    )
    parser.add_argument(
        "--record-every", type=int, default=100, help="trace sampling stride"
    )
    parser.add_argument("--seed", type=int, default=0, help="search seed")
    parser.add_argument("--out", type=str, default=None, help="output file")
    parser.add_argument(
        "--save-terminal", type=str, default=None, help="write terminal state JSON"
    )
    parser.add_argument(
        "--dump-hessian",
        type=str,
        default=None,
        help="write the finite-difference Hessian of the terminal as CSV",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="json only: csv applies to demo",
    )


def _config_from(args: argparse.Namespace) -> FlowConfig:
    if args.format != "json":
        raise ValueError(
            f"--format {args.format} applies to demo only; {args.command} writes JSON"
        )
    return FlowConfig(
        step_size=args.step,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        record_every=args.record_every,
    )


def _load_state(path: str) -> PureState:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return state_from_json(document)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_classify(args: argparse.Namespace) -> int:
    state = _load_state(args.state)
    config = _config_from(args)
    record, trace = classify_with_trace(state, config)
    report = Report(
        input_descriptor={"path": args.state, "sector": state.sector.kind,
                          "parties": state.sector.parties,
                          "local_dim": state.sector.local_dim},
        record=record,
        trace=trace,
        config=config,
        seed=args.seed,
    )
    _emit(json.dumps(report.to_json(), indent=2), args.out)
    if args.save_terminal:
        with open(args.save_terminal, "w", encoding="utf-8") as handle:
            json.dump(record.state.to_json(), handle)
    if args.dump_hessian:
        from .morse import hessian_fd_oracle, hessian_to_csv

        # Zero-level terminals have no transverse Hessian to dump.
        text = ""
        if record.hessian_spectrum:
            text = hessian_to_csv(hessian_fd_oracle(record.state))
        with open(args.dump_hessian, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return EXIT_OK


def cmd_flow(args: argparse.Namespace) -> int:
    state = _load_state(args.state)
    config = _config_from(args)
    terminal, trace = flow_to_critical(state, config)
    _emit(trace.to_json_lines(), args.out)
    if args.save_terminal:
        with open(args.save_terminal, "w", encoding="utf-8") as handle:
            json.dump(terminal.to_json(), handle)
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    tables = run_demo(args.name, args.args, seed=args.seed)
    blocks = []
    for table in tables:
        if args.format == "csv":
            blocks.append(table.to_csv())
        elif args.format == "json":
            blocks.append(json.dumps(table.to_json(), indent=2))
        else:
            blocks.append(table.to_text())
    _emit("\n\n".join(blocks), args.out)
    return EXIT_OK if all(t.all_ok for t in tables) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sloccflow",
        description=(
            "Classify entanglement families of multipartite pure states by "
            "gradient flow of the momentum-map norm."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="full family record for a state file")
    p_classify.add_argument("state", help="state JSON file")
    _add_flow_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_flow = sub.add_parser("flow", help="emit the gradient-flow trace as JSON lines")
    p_flow.add_argument("state", help="state JSON file")
    _add_flow_flags(p_flow)
    p_flow.set_defaults(func=cmd_flow)

    p_demo = sub.add_parser("demo", help="run a named reproduction demo")
    p_demo.add_argument("name", help="demo name")
    p_demo.add_argument("args", nargs="*", help="demo arguments (integers)")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--out", type=str, default=None)
    p_demo.add_argument(
        "--format", choices=("text", "csv", "json"), default="text"
    )
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (OSError, json.JSONDecodeError, UnknownDemo, SloccFlowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
