"""Command-line interface: ``python -m repro <command>``.

The experiment subcommands, their flags and their output are generated
from the experiment registry (:mod:`repro.experiments.registry`): every
registered experiment contributes one subcommand named after itself,
declares its own flags via
:meth:`~repro.experiments.api.Experiment.add_cli_arguments`, and
renders its result via
:meth:`~repro.experiments.api.Experiment.render`.  Adding a new
experiment to the registry adds its subcommand here with no CLI code.

On top of the generated subcommands:

* ``repro list``             — enumerate the registered experiments;
* ``repro batch specs.json`` — run a JSON job file as a (parallel) sweep;
* ``repro batch --plan``     — validate the file *and* print per-job
  estimated cost (cells × hops) plus sweep totals, without running;
* ``repro batch --dry-run``  — validate every job and report per-job
  checkpoint keys, so a bad sweep file fails before any simulation
  starts;
* ``repro serve specs.json --checkpoint DIR`` — run a sweep as a
  crash-resumable service: per-job results checkpoint to DIR as they
  finish, progress streams to stderr, and a partial snapshot lands in
  ``DIR/partial.json`` while the sweep runs;
* ``repro resume specs.json --checkpoint DIR`` — finish an interrupted
  sweep: checkpointed jobs are served from disk, every job without a
  checkpoint is run (the leases the stopped run left are only
  reported), and the merged output is byte-identical to an
  uninterrupted ``repro batch`` at any worker count;
* ``repro scenario list``    — enumerate the registered scenario parts
  (topology sources, workloads, churn processes, probes);
* ``repro cache info|clear`` — inspect or empty the on-disk plan cache;
* ``repro report``           — the full reproduction report;
* every experiment subcommand accepts ``--json`` to emit the
  serializable result instead of the text rendering, and
  ``--plan-cache DIR`` (default: the ``REPRO_PLAN_CACHE`` environment
  variable) to persist scenario/network plans on disk so repeated
  invocations — and parallel ``repro batch`` workers — share them.

A run loads the verb it runs: :func:`main` builds that verb's parser in
full and names the others only, and each handler imports its subsystem
when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .storage import resolve_dir

__all__ = ["main", "build_parser"]

#: The flag of every :class:`RunContext` knob, declared once: an
#: experiment subcommand gets the flags of the knobs it lists in
#: ``Experiment.knobs`` (``dest`` is the knob's field name).
_EXECUTION_FLAGS = {
    "workers": ("--workers", dict(
        type=int, default=1, metavar="N",
        help="run sweep points over N worker processes (output is "
             "byte-identical to --workers 1)",
    )),
    "checkpoint_dir": ("--checkpoint", dict(
        default=None, metavar="DIR",
        help="checkpoint completed sweep points under DIR (a re-run "
             "reuses them; `repro report DIR` renders the partial "
             "state)",
    )),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.

    Given a *command* that names a verb, that verb's subparser is built
    in full and every other verb's by name only, in the same order, so
    usage lines and error messages are those of the full parser but only
    *command*'s experiment harness is imported.  Without one (``repro
    --help``, a missing or unknown verb), every verb is built in full.
    """
    from .experiments.registry import HARNESS_MODULES, get_experiment, iter_experiments

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CircuitStart reproduction (SIGCOMM 2018 Posters)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command not in HARNESS_MODULES and command not in _BUILTIN_VERBS:
        command = None
    names = list(HARNESS_MODULES) if command else [e.name for e in iter_experiments()]
    for name in names:
        if command in (None, name):
            _add_experiment_parser(sub, get_experiment(name))
        else:
            sub.add_parser(name)
    for name, (help_text, add_arguments, __) in _BUILTIN_VERBS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
        else:
            sub.add_parser(name)
    return parser


def _add_experiment_parser(sub, experiment) -> None:
    """The subcommand of one registered experiment."""
    command = sub.add_parser(experiment.name, help=experiment.help)
    experiment.add_cli_arguments(command)
    for knob in experiment.knobs:
        flag, options = _EXECUTION_FLAGS[knob]
        command.add_argument(flag, dest=knob, **options)
    command.add_argument(
        "--json", action="store_true",
        help="print the serialized result instead of the text rendering",
    )
    command.add_argument(
        "--plan-cache", default=None, metavar="DIR",
        help="persist scenario/network plans in this directory "
             "(default: $REPRO_PLAN_CACHE; unset disables disk "
             "caching)",
    )


def _list_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("--json", action="store_true",
                         help="machine-readable listing")


def _sweep_arguments(command: argparse.ArgumentParser,
                     progress_default: str = "lines") -> None:
    """The flags `batch`, `serve` and `resume` share."""
    command.add_argument(
        "specs",
        help='job file: [{"experiment": "trace", "spec": {...}}, ...]',
    )
    command.add_argument("--workers", type=int, default=1,
                         help="worker processes (default 1: serial)")
    command.add_argument("--base-seed", type=int, default=None,
                         help="deterministically re-seed seeded specs "
                              "per job")
    command.add_argument("--out", default="-",
                         help="merged JSON output file "
                              "(default: stdout)")
    command.add_argument("--plan-cache", default=None, metavar="DIR",
                         help="share scenario/network plans across "
                              "workers and sweeps through this "
                              "directory (default: $REPRO_PLAN_CACHE; "
                              "unset disables disk caching)")
    command.add_argument("--checkpoint", default=None, metavar="DIR",
                         help="checkpoint each completed job's result "
                              "under DIR as it finishes, and serve "
                              "already-checkpointed jobs from disk "
                              "(default: $REPRO_CHECKPOINT; unset "
                              "disables checkpointing for `batch`)")
    command.add_argument("--progress", default=progress_default,
                         choices=("lines", "table", "none"),
                         help="streaming progress on stderr as jobs "
                              "finish: one line per job, a re-rendered "
                              "partial table, or nothing (default: "
                              "%(default)s)")


def _batch_arguments(command: argparse.ArgumentParser) -> None:
    _sweep_arguments(command, progress_default="none")
    command.add_argument("--dry-run", action="store_true",
                         help="validate the spec file (decode every job, "
                              "report per-job checkpoint keys) without "
                              "running anything")
    command.add_argument("--plan", action="store_true",
                         help="like --dry-run, plus per-job estimated cost "
                              "(cells × hops) and sweep totals, so big "
                              "sweeps are predictable before launch")


def _cache_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("action", choices=("info", "clear"),
                         help="'info' summarizes the directory, 'clear' "
                              "deletes every entry")
    command.add_argument("--dir", default=None, metavar="DIR",
                         help="cache directory (default: $REPRO_PLAN_CACHE)")
    command.add_argument("--json", action="store_true",
                         help="machine-readable output (info only)")


def _report_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "checkpoint_dir", nargs="?", default=None, metavar="DIR",
        help="render a sweep checkpoint directory's partial state as "
             "tables instead of the reproduction report",
    )
    command.add_argument("--out", default="-",
                         help="output file (default: stdout)")
    command.add_argument("--full", action="store_true",
                         help="paper-scale runs (slow)")
    command.add_argument("--json", action="store_true",
                         help="with DIR: print the partial.json snapshot "
                              "instead of tables")


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("--hops", type=int, default=2,
                       help="transport hops on the circuit (default 2)")
    check.add_argument("--cells", type=int, default=3,
                       help="payload cells to push (default 3)")
    check.add_argument("--reliable", action="store_true",
                       help="enable go-back-N: adds loss and RTO events "
                            "to the schedule alphabet")
    check.add_argument("--loss-budget", type=int, default=None,
                       metavar="N",
                       help="cap loss events per execution (default: "
                            "unlimited; the retransmission budget keeps "
                            "the space finite regardless)")
    check.add_argument("--cwnd", type=int, default=2,
                       help="initial/fixed congestion window in cells "
                            "(default 2)")
    check.add_argument("--window-mode", choices=("fixed", "double"),
                       default="fixed",
                       help="'fixed': constant window; 'double': "
                            "CircuitStart's discrete-round doubling "
                            "with the RTT exit detector disabled")
    check.add_argument("--close", action="store_true", dest="allow_close",
                       help="add a one-shot circuit-teardown event at an "
                            "arbitrary point (churn departures)")
    check.add_argument("--max-retx-rounds", type=int, default=1,
                       help="retransmission budget before a hop breaks "
                            "the circuit (default 1 — the break path "
                            "stays reachable while the schedule space "
                            "stays exhaustively enumerable; 2 takes "
                            "minutes at 2 hops with --loss-budget 1, is "
                            "intractable without it, and the engine "
                            "default of 12 explodes the space)")
    check.add_argument("--max-states", type=int, default=None,
                       help="stop after exploring this many states "
                            "(bounded check)")
    check.add_argument("--max-depth", type=int, default=None,
                       help="bound the schedule length (bounded check)")
    check.add_argument("--no-por", action="store_true",
                       help="disable the sleep-set partial-order "
                            "reduction (cross-check mode)")
    check.add_argument("--symmetry", action="store_true",
                       help="canonicalize state hashes under permutation "
                            "of structurally identical interior hops "
                            "(heuristic reduction; every represented "
                            "state is still invariant-checked)")
    check.add_argument("--replay", type=int, default=25, metavar="N",
                       help="re-execute N sampled schedules against the "
                            "real engine (default 25; 0 disables)")
    check.add_argument("--seed", type=int, default=0,
                       help="schedule-sampling seed (exploration itself "
                            "is deterministic)")
    check.add_argument("--emit-schedules", default=None, metavar="DIR",
                       help="write sampled schedules and counterexamples "
                            "as JSON files into DIR")
    check.add_argument("--json", action="store_true",
                       help="machine-readable result instead of the "
                            "text report")


def _lint_arguments(lint: argparse.ArgumentParser) -> None:
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed "
             "repro package)",
    )
    lint.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (e.g. DET001,ARCH001), "
             "or 'list' to print the rule catalog and exit",
    )
    lint.add_argument("--json", action="store_true",
                      help="machine-readable findings instead of the "
                           "text report")


def _attached_plan_cache(args: argparse.Namespace):
    """Give the process-wide plan cache a disk tier, if one is configured.

    Resolution order: ``--plan-cache DIR`` on the subcommand, then the
    ``REPRO_PLAN_CACHE`` environment variable.  Neither set: purely
    in-memory caching, as before.  The tier is detached on exit so
    in-process callers of :func:`main` (tests, notebooks) do not leak
    one command's cache directory into the next.
    """
    from .scenario.cache import DEFAULT_CACHE, PLAN_CACHE_ENV_VAR, attached_disk_tier

    directory = resolve_dir(getattr(args, "plan_cache", None), PLAN_CACHE_ENV_VAR)
    return attached_disk_tier(DEFAULT_CACHE, directory)


def _cmd_experiment(args: argparse.Namespace) -> int:
    """An experiment subcommand: run its spec, print the result."""
    from .experiments.api import RunContext
    from .experiments.registry import get_experiment

    if args.command == "scenario" and args.action == "list":
        return _list_scenario_parts(args)
    experiment = get_experiment(args.command)
    try:
        spec = experiment.spec_from_cli(args)
        ctx = RunContext(
            **{knob: getattr(args, knob) for knob in experiment.knobs}
        )
    except ValueError as error:  # SpecError, or a bad knob value
        print(str(error), file=sys.stderr)
        return 2
    try:
        with _attached_plan_cache(args):
            result = experiment.run(spec, ctx)
    except (KeyboardInterrupt, RuntimeError) as error:
        from .jobs.dispatch import SweepBroken, SweepInterrupted
        from .scenario.engine import UnfinishedCircuitsError

        if isinstance(error, (SweepInterrupted, SweepBroken)):  # the study verbs
            return _sweep_stopped(error, ctx.checkpoint_dir, "re-run the same command")
        if not isinstance(error, UnfinishedCircuitsError):
            raise
        print(error, file=sys.stderr)  # a valid spec, too short a horizon
        return 1
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(experiment.render(result))
    return 0


def _print_listing(args: argparse.Namespace, rows: List[dict],
                   headers: List[str], title: str) -> int:
    """*rows* as ``--json``, or as a table titled with their count."""
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        from .report.tables import format_table

        print(format_table(
            headers, [list(row.values()) for row in rows],
            title="%s (%d)" % (title, len(rows)),
        ))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments.registry import iter_experiments

    return _print_listing(
        args,
        [
            {
                "name": e.name,
                "spec": e.spec_type.__name__,
                "result": e.result_type.__name__,
                "help": e.help,
            }
            for e in iter_experiments()
        ],
        ["experiment", "spec", "result", "description"],
        "Registered experiments",
    )


def _load_jobs(path: str) -> Optional[list]:
    """Read a sweep's job file; ``None`` (after a stderr message) if bad."""
    from .serialize import SpecError, read_json_file

    try:
        data = read_json_file(path, "batch file")
    except SpecError as error:
        print(error, file=sys.stderr)
        return None
    if isinstance(data, dict):
        data = data.get("jobs", [])
    if not isinstance(data, list) or not data:
        print("batch file %s holds no jobs" % path, file=sys.stderr)
        return None
    return data


def _out_unwritable(out: str) -> bool:
    """Whether ``--out`` *out* names a file whose directory does not exist.

    Checked before any work, so a typo'd path costs one stderr line
    naming it instead of a finished sweep's output.  ``-`` is stdout.
    """
    parent = os.path.dirname(os.path.abspath(out))
    if out == "-" or os.path.isdir(parent):
        return False
    print("cannot write --out %s: %s is not a directory" % (out, parent),
          file=sys.stderr)
    return True


def _write_out(out: str, text: str) -> bool:
    """Write *text* and a final newline to *out*; one stderr line if not."""
    try:
        with open(out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    except OSError as error:
        print("cannot write --out %s: %s" % (out, error.strerror or error),
              file=sys.stderr)
        return False
    return True


def _print_cache_stats(result) -> None:
    """The plan-cache summary line, on stderr (observability only)."""
    stats = getattr(result, "plan_cache", None)
    if not stats or not sum(stats.values()):
        return
    line = (
        "scenario plan cache: %d plan hit(s) / %d miss(es), "
        "%d network hit(s) / %d miss(es)"
        % (stats.get("plan_hits", 0), stats.get("plan_misses", 0),
           stats.get("network_hits", 0), stats.get("network_misses", 0))
    )
    disk_consults = sum(
        stats.get(key, 0)
        for key in ("disk_plan_hits", "disk_plan_misses",
                    "disk_network_hits", "disk_network_misses")
    )
    if disk_consults:
        line += (
            "; disk: %d plan hit(s) / %d miss(es), "
            "%d network hit(s) / %d miss(es)"
            % (stats.get("disk_plan_hits", 0),
               stats.get("disk_plan_misses", 0),
               stats.get("disk_network_hits", 0),
               stats.get("disk_network_misses", 0))
        )
    print(line, file=sys.stderr)


def _sweep_stopped(stop: BaseException, checkpoint_dir: Optional[str],
                   hint: str) -> int:
    """A paused or crashed sweep as stderr lines and an exit code.

    130 for Ctrl-C, 3 for a dead worker; with a checkpoint directory
    everything finished is on disk, and *hint* says how to go on.
    """
    from .jobs.dispatch import SweepInterrupted

    if isinstance(stop, SweepInterrupted):
        print("interrupted: %d of %d jobs finished%s"
              % (len(stop.outcomes), stop.total,
                 " and checkpointed" if checkpoint_dir else ""),
              file=sys.stderr)
        if checkpoint_dir:
            print(hint, file=sys.stderr)
        return 130
    print("sweep broken: %s" % stop, file=sys.stderr)
    if checkpoint_dir:
        print("completed jobs are checkpointed; %s" % hint, file=sys.stderr)
    return 3


def _run_sweep(args: argparse.Namespace, data: list,
               checkpoint_dir: Optional[str]) -> int:
    """The engine behind ``batch``, ``serve`` and ``resume``.

    Streams progress and ``partial.json`` as jobs finish, writes the
    merged JSON at the end, and maps sweep outcomes to exit codes:
    0 all jobs ok, 1 some jobs failed (the sweep itself completed),
    2 usage/spec errors or an ``--out`` that cannot be written,
    130 interrupted (Ctrl-C), 3 a worker died —
    the latter two with a resume hint when checkpointing is on.
    """
    from .experiments.runner import run_batch
    from .jobs.dispatch import SweepBroken, SweepInterrupted
    from .report.partial import partial_writer, render_partial_table, row_status
    from .scenario.cache import PLAN_CACHE_ENV_VAR

    if _out_unwritable(args.out):
        return 2
    progress = args.progress
    rows: list = []
    record = partial_writer(checkpoint_dir, rows)

    def on_item(item, done: int, total: int, source: str) -> None:
        record(item, done, total, source)
        if progress == "lines":
            label = " [%s]" % item.label if item.label else ""
            print("[%d/%d] job %d: %s%s %s"
                  % (done, total, item.index, item.experiment, label,
                     row_status(rows[-1])),
                  file=sys.stderr)
        elif progress == "table":
            print(render_partial_table(rows, total), file=sys.stderr)

    streaming = progress != "none" or checkpoint_dir is not None
    try:
        # run_batch normalizes dicts, bare experiment names, and BatchJobs.
        result = run_batch(data, workers=args.workers,
                           base_seed=args.base_seed,
                           plan_cache_dir=resolve_dir(args.plan_cache,
                                                      PLAN_CACHE_ENV_VAR),
                           checkpoint_dir=checkpoint_dir,
                           resume=args.command == "resume",
                           on_item=on_item if streaming else None)
    except (SweepInterrupted, SweepBroken) as stop:
        return _sweep_stopped(
            stop, checkpoint_dir,
            "resume with: repro resume %s --checkpoint %s"
            % (args.specs, checkpoint_dir),
        )
    except TypeError as error:
        print(str(error), file=sys.stderr)
        return 2
    except KeyError as error:
        # get_experiment formats its own message; str(KeyError) re-quotes.
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    except ValueError as error:  # SpecError, config validation
        print(str(error), file=sys.stderr)
        return 2
    failures = result.failures()
    for item in failures:
        error = item.error or {}
        label = " [%s]" % item.label if item.label else ""
        print("job %d failed (%s%s, spec %s): %s: %s"
              % (item.index, item.experiment, label,
                 error.get("spec_hash", "?")[:16],
                 error.get("type", "Error"), error.get("message", "")),
              file=sys.stderr)
    _print_cache_stats(result)
    checkpoint = getattr(result, "checkpoint", None)
    if checkpoint:
        line = (
            "checkpoints: %d reused / %d computed / %d duplicate(s) in %s"
            % (checkpoint["reused"], checkpoint["computed"],
               checkpoint["duplicates"], checkpoint["directory"])
        )
        orphans = checkpoint.get("orphans") or {}
        if orphans:
            line += "; re-ran %d orphaned job(s)" % len(orphans)
        print(line, file=sys.stderr)
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    if args.out == "-":
        print(text)
    elif _write_out(args.out, text):
        print("wrote %s (%d jobs)" % (args.out, len(result.items)))
    else:
        return 2
    return 1 if failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``repro batch``, ``serve`` and ``resume``: one sweep, asked for
    three ways.

    ``serve`` and ``resume`` insist on a checkpoint directory (``resume``
    on one that exists); ``batch`` checkpoints only when given one, and
    alone has ``--dry-run`` / ``--plan``.
    """
    from .jobs.store import CHECKPOINT_ENV_VAR

    checkpoint_dir = resolve_dir(args.checkpoint, CHECKPOINT_ENV_VAR)
    if args.command != "batch":
        if not checkpoint_dir:
            print("repro %s needs a checkpoint directory: pass "
                  "--checkpoint DIR or set REPRO_CHECKPOINT" % args.command,
                  file=sys.stderr)
            return 2
        if args.command == "resume" and not os.path.isdir(checkpoint_dir):
            print("nothing to resume: checkpoint directory %s does not exist"
                  % checkpoint_dir, file=sys.stderr)
            return 2
    data = _load_jobs(args.specs)
    if data is None:
        return 2
    if args.command == "batch" and (args.dry_run or args.plan):
        return _dry_run_batch(
            args.specs, data, plan=args.plan, base_seed=args.base_seed
        )
    return _run_sweep(args, data, checkpoint_dir)


def _dry_run_batch(path: str, jobs: list, plan: bool = False,
                   base_seed: Optional[int] = None) -> int:
    """Validate every job of a batch file without running anything.

    Decoding a job exercises the full spec path — experiment lookup in
    the registry, field-name checking and type-driven reconstruction —
    so a passing dry run means ``repro batch`` will accept the file.
    Every valid job reports its checkpoint key — computed from the same
    seeded, encoded spec the runtime hashes (*base_seed* included), so
    the printed keys match what ``repro serve`` will write under
    ``results/``.  With *plan*, each valid job additionally reports its
    estimated cost (``Experiment.estimate_cost``: cells and cells ×
    hops) and the sweep totals are printed, so big launches are
    predictable up front.
    """
    from .experiments.registry import get_experiment
    from .experiments.runner import prepare_job

    errors = 0
    estimated = 0
    total_cells = 0
    total_cell_hops = 0
    total_weighted = 0
    for index, raw in enumerate(jobs):
        try:
            # What run_batch itself does to a job before running it, so
            # a dry-run verdict (and key) cannot disagree with the run.
            job, __, key = prepare_job(raw, index, base_seed)
        except KeyError as error:  # unknown experiment
            errors += 1
            message = error.args[0] if error.args else str(error)
            print("job %d: %s" % (index, message), file=sys.stderr)
            continue
        except (TypeError, ValueError) as error:  # bad job shape, SpecError
            errors += 1
            print("job %d: %s" % (index, error), file=sys.stderr)
            continue
        spec = job.spec
        label = " [%s]" % job.label if job.label else ""
        suffix = ""
        if plan:
            try:
                cost = get_experiment(job.experiment).estimate_cost(spec)
            except ValueError as error:  # spec decodes but cannot plan
                errors += 1
                print("job %d: cannot plan: %s" % (index, error),
                      file=sys.stderr)
                continue
            if cost is None:
                suffix = "  cost: n/a"
            else:
                kinds = cost.get("kinds", 1)
                weighted = cost["cell_hops"] * kinds
                estimated += 1
                total_cells += cost["cells"]
                total_cell_hops += cost["cell_hops"]
                total_weighted += weighted
                suffix = (
                    "  cost: %d circuits, %d cells, %d cell-hops"
                    " (x%d kinds = %d)"
                    % (cost.get("circuits", 0), cost["cells"],
                       cost["cell_hops"], kinds, weighted)
                )
        print("job %d: %s %s%s ok%s  key=%s"
              % (index, job.experiment, type(spec).__name__, label, suffix,
                 key))
    if errors:
        print("%s: %d of %d jobs invalid" % (path, errors, len(jobs)),
              file=sys.stderr)
        return 2
    print("%s: all %d jobs valid" % (path, len(jobs)))
    if plan:
        print(
            "estimated sweep cost: %d of %d jobs estimable, "
            "%d cells, %d cell-hops, %d kind-weighted cell-hops"
            % (estimated, len(jobs), total_cells, total_cell_hops,
               total_weighted)
        )
    return 0


def _list_scenario_parts(args: argparse.Namespace) -> int:
    """``repro scenario list``: the registered scenario parts."""
    from .scenario import list_parts

    return _print_listing(
        args,
        [
            {
                "kind": kind,
                "part": name,
                "class": cls.__name__,
                "help": (cls.__doc__ or "").strip().splitlines()[0],
            }
            for kind, name, cls in list_parts()
        ],
        ["kind", "part", "class", "description"],
        "Registered scenario parts",
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache info|clear``: manage the on-disk plan cache."""
    from .scenario.cache import PLAN_CACHE_ENV_VAR, DiskPlanCache

    directory = resolve_dir(args.dir, PLAN_CACHE_ENV_VAR)
    if not directory:
        print(
            "no plan-cache directory: pass --dir DIR or set "
            "REPRO_PLAN_CACHE",
            file=sys.stderr,
        )
        return 2
    disk = DiskPlanCache(directory)
    if args.action == "clear":
        removed = disk.clear()
        print("cleared %d entr%s from %s"
              % (removed, "y" if removed == 1 else "ies", disk.directory))
        return 0
    info = disk.info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print("plan cache at %s" % info["directory"])
    print("  format version: %d" % info["format_version"])
    print("  scenario plans: %d" % info["plan_entries"])
    print("  network plans:  %d" % info["network_entries"])
    print("  size: %d bytes (cap %d)"
          % (info["total_bytes"], info["max_bytes"]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.checkpoint_dir is not None:
        return _report_checkpoint(args)
    if args.json:
        print("repro report: --json prints a checkpointed sweep's "
              "partial.json and needs DIR", file=sys.stderr)
        return 2
    if _out_unwritable(args.out):
        return 2
    from .report.summary import generate_report

    text = generate_report(full=args.full)
    if args.out == "-":
        print(text)
    elif _write_out(args.out, text):
        print("wrote %s" % args.out)
    else:
        return 2
    return 0


def _report_checkpoint(args: argparse.Namespace) -> int:
    """``repro report DIR``: render a sweep checkpoint's partial state.

    The streaming ``partial.json`` snapshot (written by ``repro serve``
    and checkpointing ``repro batch``/``adversity-study`` sweeps) is
    rendered from its rows as the table ``--progress table`` prints.
    """
    from .jobs.store import JobStore
    from .report.partial import render_partial_table

    if not os.path.isdir(args.checkpoint_dir):
        print("no such checkpoint directory: %s" % args.checkpoint_dir,
              file=sys.stderr)
        return 2
    store = JobStore(args.checkpoint_dir)
    payload = store.read_partial()
    if payload is None:
        info = store.info()
        if not info["checkpoints"]:
            print("no sweep state under %s (no partial.json, no "
                  "checkpoints)" % args.checkpoint_dir, file=sys.stderr)
            return 2
        # Checkpoints but no streaming snapshot (e.g. a sweep driven
        # with on_item disabled): summarize what is on disk.
        payload = {"done": info["checkpoints"],
                   "total": info["checkpoints"], "failed": 0, "items": []}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = payload.get("items", [])
    if rows:
        print(render_partial_table(
            rows,
            payload.get("total", len(rows)),
            title="checkpointed sweep %s (%d/%d done, %d failed)" % (
                args.checkpoint_dir, payload.get("done", len(rows)),
                payload.get("total", len(rows)), payload.get("failed", 0),
            ),
        ))
    else:
        print("checkpointed sweep %s: %d job(s) checkpointed (no "
              "streaming snapshot)"
              % (args.checkpoint_dir, payload.get("done", 0)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: enumerate interleavings, assert, replay."""
    from .check import (
        CheckConfig,
        explore,
        render_check_report,
        replay_schedule,
    )
    from .check.search import check_bounds

    try:
        config = CheckConfig(
            hops=args.hops,
            cells=args.cells,
            reliable=args.reliable,
            cwnd=args.cwnd,
            window_mode=args.window_mode,
            max_retransmission_rounds=args.max_retx_rounds,
            allow_close=args.allow_close,
            loss_budget=args.loss_budget,
        )
        check_bounds(args.max_states, args.max_depth, args.replay)
    except ValueError as error:
        print("check: %s" % error, file=sys.stderr)
        return 2
    if args.emit_schedules:
        try:
            os.makedirs(args.emit_schedules, exist_ok=True)
        except OSError as error:
            print("check: --emit-schedules: %s" % error, file=sys.stderr)
            return 2
    result = explore(
        config,
        por=not args.no_por,
        symmetry=args.symmetry,
        max_states=args.max_states,
        max_depth=args.max_depth,
        sample_schedules=args.replay,
        seed=args.seed,
    )
    replays = [replay_schedule(schedule) for schedule in result.samples]
    if args.emit_schedules:
        for index, schedule in enumerate(result.samples):
            path = os.path.join(
                args.emit_schedules, "schedule-%03d.json" % index
            )
            with open(path, "w") as f:
                f.write(schedule.to_json(indent=2, sort_keys=True) + "\n")
        for index, violation in enumerate(result.violations):
            path = os.path.join(
                args.emit_schedules, "counterexample-%03d.json" % index
            )
            with open(path, "w") as f:
                f.write(violation.to_json(indent=2, sort_keys=True) + "\n")
    failed = bool(result.violations) or any(
        not report.agreed for report in replays
    )
    if args.json:
        print(json.dumps(
            {
                "config": config.to_dict(),
                "stats": result.stats.to_dict(),
                "violations": [v.to_dict() for v in result.violations],
                "replays": [r.to_dict() for r in replays],
                "replays_agreed": sum(1 for r in replays if r.agreed),
                "ok": not failed,
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(render_check_report(
            result, replays if args.replay else None
        ))
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: the determinism & contracts static analysis.

    Exit codes match ``repro check``: 0 clean, 1 findings, 2 usage.
    """
    from .lint import ALL_RULES, run_lint, rules_by_id

    if args.rules == "list":
        for rule in ALL_RULES:
            print("%s  %s" % (rule.id, rule.title))
            print("        scope: %s" % rule.scope)
        return 0
    rules = list(ALL_RULES)
    if args.rules is not None:
        registry = rules_by_id()
        selected = [part.strip() for part in args.rules.split(",")
                    if part.strip()]
        unknown = [rule_id for rule_id in selected
                   if rule_id not in registry]
        if unknown or not selected:
            print("lint: unknown rule id(s): %s (try --rules list)"
                  % (", ".join(unknown) or "<none given>"),
                  file=sys.stderr)
            return 2
        rules = [registry[rule_id] for rule_id in selected]
    paths = args.paths
    if not paths:
        # Default to the package's own source tree.
        paths = [os.path.dirname(os.path.abspath(__file__))]
    try:
        report = run_lint(paths, rules)
    except FileNotFoundError as error:
        print("lint: %s" % error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        print("%d finding(s) in %d module(s), %d rule(s)"
              % (len(report.findings), report.modules_checked,
                 len(report.rules)))
    return 0 if report.ok else 1


#: Each verb that is not an experiment: its help line, the builder of
#: its flags and its handler, in ``repro --help`` order.
_BUILTIN_VERBS = {
    "list": ("list the registered experiments", _list_arguments, _cmd_list),
    "batch": ("run a JSON file of experiment specs as one sweep",
              _batch_arguments, _cmd_sweep),
    "serve": ("run a sweep as a crash-resumable checkpointing service",
              _sweep_arguments, _cmd_sweep),
    "resume": ("finish an interrupted sweep from its checkpoint directory",
               _sweep_arguments, _cmd_sweep),
    "cache": ("inspect or clear the on-disk plan cache",
              _cache_arguments, _cmd_cache),
    "report": ("full reproduction report, or the state of a checkpointed "
               "sweep (`repro report DIR`)", _report_arguments, _cmd_report),
    "check": ("exhaustively check the hop transport's interleavings "
              "(model checker + engine replay)", _check_arguments, _cmd_check),
    "lint": ("static analysis of the package's own determinism and "
             "serialization contracts", _lint_arguments, _cmd_lint),
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    verb = _BUILTIN_VERBS.get(args.command)
    return (verb[2] if verb else _cmd_experiment)(args)
