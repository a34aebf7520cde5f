"""Command-line entry point: regenerate any table or figure.

Usage::

    repro-experiments figure3
    repro-experiments table7
    repro-experiments sweep --jobs 4          # parallel, cached
    repro-experiments cache stats
    repro-experiments cache clear
    repro-experiments serve --listen 127.0.0.1:7994        # job server
    repro-experiments submit --connect 127.0.0.1:7994 --workloads R1
    repro-experiments jobs --connect 127.0.0.1:7994        # job statuses
    repro-experiments jobs job-0001 --connect 127.0.0.1:7994
"""

import argparse
import os
import sys
import time

from repro.experiments import (
    figure2,
    figure3,
    table4,
    table7,
    figures6_7,
    table10,
    figures8_9,
    configs,
)
from repro.experiments.runner import ExperimentContext


def _uniproc(ctx, workloads=None):
    from repro.workloads.uniprocessor import WORKLOAD_ORDER
    workloads = tuple(workloads) if workloads else WORKLOAD_ORDER
    print(table7.render(table7.run(ctx, workloads=workloads),
                        workloads=workloads))
    print()
    for scheme in ("blocked", "interleaved"):
        print(figures6_7.render(
            figures6_7.run(ctx, scheme=scheme, workloads=workloads),
            scheme=scheme, workloads=workloads))
        print()


def _mp(ctx, apps=None):
    from repro.workloads.splash import SPLASH_ORDER
    apps = tuple(apps) if apps else SPLASH_ORDER
    print(table10.render(table10.run(ctx, apps=apps), apps=apps))
    print()
    for scheme in ("blocked", "interleaved"):
        print(figures8_9.render(
            figures8_9.run(ctx, scheme=scheme, apps=apps),
            scheme=scheme, apps=apps))
        print()


def _summary(ctx):
    from repro.experiments import summary
    print(summary.render(ctx=ctx))


def _analyze(ctx):
    """Deep-dive analysis of a representative run of each environment."""
    from repro.experiments import analysis
    # Analysis inspects the simulator's end state, which the on-disk
    # cache does not persist; force a live simulation if necessary.
    run = ctx.uniproc_run("DC", "interleaved", 4, need_simulator=True)
    print(analysis.render_workstation(
        analysis.analyze_workstation(run.simulator, run.result)))
    print()
    from repro.api import Simulation
    simulation = Simulation.from_config(
        ctx.mp_params, scheme="interleaved", n_contexts=4,
        seed=ctx.seed).load("mp3d")
    result = simulation.run()
    print(analysis.render_multiprocessor(
        analysis.analyze_multiprocessor(simulation.simulator,
                                        result.raw)))


def _export(ctx):
    """Run the core tables and dump every memoised run as JSON."""
    from repro.experiments import export
    table7.run(ctx)
    table10.run(ctx)
    path = export.write_json("results.json", export.context_to_dict(ctx))
    print("wrote %s" % path)


def _render_everything(ctx, workloads=None, apps=None):
    """Render every table and figure from an (ideally pre-warmed) ctx."""
    for name in ("configs", "figure2", "figure3", "table4"):
        EXPERIMENTS[name](ctx)
        print()
    _uniproc(ctx, workloads=workloads)
    print()
    _mp(ctx, apps=apps)


def _sweep(ctx, args):
    """Compute every figure/table point in parallel, then render."""
    from repro.experiments import sweep
    workloads = args.workloads.split(",") if args.workloads else None
    apps = args.apps.split(",") if args.apps else None
    _validate_subsets(workloads, apps)
    engine = sweep.SweepEngine(
        ctx, jobs=args.jobs,
        progress=lambda msg: print(msg, file=sys.stderr))
    report = engine.run(sweep.default_points(workloads=workloads,
                                             apps=apps))
    print("sweep: %s" % report.summary(), file=sys.stderr)
    if ctx.cache is not None:
        print("cache: %r" % (ctx.cache.session_stats(),), file=sys.stderr)
    _render_everything(ctx, workloads=workloads, apps=apps)
    return report


def _write_profile(profiler, path):
    """Persist a cProfile run: raw pstats dump plus a readable summary.

    The dump loads into ``pstats``/``snakeviz`` for interactive digging;
    the ``.txt`` sidecar holds the top 25 functions by cumulative time
    for a quick look without any tooling.
    """
    import io
    import pstats
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    profiler.dump_stats(path)
    stream = io.StringIO()
    pstats.Stats(path, stream=stream).strip_dirs() \
        .sort_stats("cumulative").print_stats(25)
    summary_path = path + ".txt"
    with open(summary_path, "w") as fh:
        fh.write(stream.getvalue())
    print("profile: %s (summary: %s)" % (path, summary_path),
          file=sys.stderr)


def _cache_admin(args):
    from repro.experiments.cache import ResultCache
    cache = ResultCache(args.cache_dir)
    action = args.action or "stats"
    if action == "clear":
        removed = cache.clear()
        print("cleared %d cache entries under %s" % (removed, cache.root))
    else:
        stats = cache.disk_stats()
        print("cache directory : %s" % stats["root"])
        print("entries         : %d" % stats["entries"])
        print("size            : %.1f KiB" % (stats["bytes"] / 1024.0))
        for kind in sorted(stats["by_kind"]):
            print("  %-10s : %d" % (kind, stats["by_kind"][kind]))
    return 0


def _validate_subsets(workloads, apps, kernels=()):
    """Exit naming every unknown workload/app name (``sweep`` and the
    service verbs).  ``kernels`` are the names of dedicated points: one
    application run alone, a Spec89 kernel or a SPLASH app."""
    from repro.workloads.uniprocessor import WORKLOADS, kernel_names
    from repro.workloads.splash import SPLASH_APPS
    dedicated = kernel_names() + sorted(SPLASH_APPS)
    unknown = ([w for w in workloads or () if w not in WORKLOADS]
               + [a for a in apps or () if a not in SPLASH_APPS]
               + [k for k in kernels if k not in dedicated])
    if unknown:
        sys.exit("error: unknown workload/app name(s): %s (workloads: "
                 "%s; apps: %s%s)" % (", ".join(unknown),
                                      ", ".join(sorted(WORKLOADS)),
                                      ", ".join(sorted(SPLASH_APPS)),
                                      "; dedicated: %s"
                                      % ", ".join(dedicated)
                                      if kernels else ""))


def _service_spec(args):
    """A JobSpec from the same flags the batch verbs use."""
    from repro.config import SystemConfig, MultiprocessorParams
    from repro.service import JobSpec
    workloads = args.workloads.split(",") if args.workloads else None
    apps = args.apps.split(",") if args.apps else None
    _validate_subsets(workloads, apps)
    kwargs = {
        "config": (SystemConfig.paper() if args.profile == "paper"
                   else SystemConfig.fast()),
        "mp_params": MultiprocessorParams(
            n_nodes=args.nodes if args.nodes is not None else 8),
        "seed": args.seed,
        "engine": args.engine,
        "timeout": args.job_timeout,
        "max_retries": args.max_retries,
    }
    if args.warmup is not None:
        kwargs["warmup"] = args.warmup
    if args.measure is not None:
        kwargs["measure"] = args.measure
    if args.points:
        points = []
        for text in args.points.split(","):
            parts = text.split(":")
            if len(parts) != 4 or parts[0] not in ("uniproc", "dedicated",
                                                   "mp", "gen"):
                sys.exit("error: --points entries are "
                         "kind:name:scheme:n_contexts with kind one of "
                         "uniproc/dedicated/mp/gen, not %r" % (text,))
            try:
                points.append((parts[0], parts[1], parts[2],
                               int(parts[3])))
            except ValueError:
                sys.exit("error: bad context count in %r" % (text,))
        # gen points carry a GenSpec text instead of a workload name;
        # validate it parses (the colon-free k=v;k=v form) up front.
        from repro.workloads.generator import GenSpec
        for p in points:
            if p[0] == "gen":
                try:
                    GenSpec.from_text(p[1])
                except ValueError as exc:
                    sys.exit("error: bad gen spec in %r: %s" % (p, exc))
        _validate_subsets(
            [p[1] for p in points if p[0] == "uniproc"],
            [p[1] for p in points if p[0] == "mp"],
            [p[1] for p in points if p[0] == "dedicated"])
        return JobSpec(points=tuple(points), **kwargs)
    return JobSpec.sweep(workloads=workloads, apps=apps, **kwargs)


def _submit(args):
    """The 'submit' verb: submit a job over TCP to a ``serve --listen``
    process, print its id (optionally stream its payloads)."""
    from repro.service import connect
    spec = _service_spec(args)
    with connect(args.connect) as client:
        job_id = client.submit(spec, idempotency_key=args.idempotency_key)
        print(job_id)
        if args.stream:
            for payload in client.stream(job_id):
                print(payload)
    return 0


def _serve(args, host, port, _ready=None):
    """The 'serve' verb: run submitted jobs on a worker pool, serving
    the TCP protocol of :mod:`repro.service.net` on ``host:port``."""
    from repro.experiments.cache import ResultCache
    from repro.service import JobManager
    from repro.service.net import ServiceServer
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    manager = JobManager(workers=args.workers, cache=cache,
                         default_timeout=args.job_timeout)
    server = ServiceServer(manager, host=host, port=port)

    def announce(srv):
        print("listening on %s:%d with %d worker(s)"
              % (srv.host, srv.port, args.workers), file=sys.stderr)
        if _ready is not None:         # test seam: the bound server
            _ready(srv)

    try:
        server.serve(max_seconds=args.serve_seconds, ready=announce)
    except KeyboardInterrupt:
        pass
    except OSError as exc:             # the bind failed: nothing served
        print("error: cannot listen on %s:%d: %s" % (host, port, exc),
              file=sys.stderr)
        return 1
    finally:
        manager.shutdown(wait=True)
    stats = server.stats.snapshot()
    print("served %d request(s) over %d connection(s)"
          % (stats["requests"], stats["connections"]), file=sys.stderr)
    return 0


def _jobs(args):
    """The 'jobs' verb: list a ``serve --listen`` server's jobs, or
    show one job in full."""
    import json as _json
    from repro.service import connect
    with connect(args.connect) as client:
        if args.action:
            status = client.status(args.action)
            status["results"] = status["completed"]
            print(_json.dumps(status, indent=2, sort_keys=True))
            return 0
        statuses = client.jobs()
        if not statuses:
            print("no jobs on %s" % args.connect)
            return 0
        print("%-10s %-10s %9s %9s %6s" % ("JOB", "STATUS", "COMPLETED",
                                           "POINTS", "HITS"))
        for st in statuses:
            print("%-10s %-10s %9s %9s %6s"
                  % (st.get("job_id", "?"), st.get("status", "?"),
                     st.get("completed", "-"), st.get("n_points", "-"),
                     st.get("cache_hits", "-")))
    return 0


def _service_verb(parser, args, _ready=None):
    """Run 'serve', 'submit' or 'jobs' once its address is valid.

    A missing or malformed ``--listen``/``--connect`` exits 2 before any
    manager, worker or socket exists; a failure to reach the server
    exits 1 with a one-line error.
    """
    from repro.service import ServiceError
    from repro.service.net import parse_address
    flag, address = (("--listen", args.listen)
                     if args.experiment == "serve"
                     else ("--connect", args.connect))
    if args.experiment != "jobs" and args.action is not None:
        parser.error("%s takes no positional argument; name the server "
                     "with %s HOST:PORT" % (args.experiment, flag))
    if address is None:
        parser.error("%s needs %s HOST:PORT" % (args.experiment, flag))
    try:
        host, port = parse_address(address)
    except ValueError as exc:
        parser.error("%s: %s" % (flag, exc))
    if args.experiment == "serve":
        return _serve(args, host, port, _ready=_ready)
    try:
        return _submit(args) if args.experiment == "submit" else _jobs(args)
    except ServiceError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


def _generate(args):
    """The 'generate' verb: emit a family of generated programs.

    Deterministic: the same ``--spec``/``--seed`` always produces the
    same programs (same ``program_fingerprint``).  Programs are
    verified at birth unless ``--no-verify``; ``--emit-asm DIR`` dumps
    each member's re-assemblable source next to its fingerprint.
    """
    import dataclasses
    from repro.analysis import program_fingerprint
    from repro.workloads.generator import (GenSpec, GenerationError,
                                           generate_family)
    try:
        spec = GenSpec.from_text(args.spec or "")
    except (ValueError, TypeError) as exc:
        sys.exit("error: bad --spec: %s" % (exc,))
    if "seed=" not in (args.spec or ""):
        # --seed names the family head unless the spec text pins one.
        spec = dataclasses.replace(spec, seed=args.seed)
    verify = not args.no_verify
    try:
        family = generate_family(spec, max(1, args.count), verify=verify)
    except GenerationError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    print("spec            : %s" % (spec.to_text() or "<defaults>"))
    print("spec fingerprint: %s" % spec.fingerprint())
    if args.emit_asm:
        os.makedirs(args.emit_asm, exist_ok=True)
    for member, program in family:
        print("%-12s seed=%-6d %5d insts  %s%s"
              % (member.name, member.seed, len(program),
                 program_fingerprint(program),
                 "  verified" if verify else ""))
        if args.emit_asm:
            path = os.path.join(args.emit_asm, "%s.s" % member.name)
            with open(path, "w") as fh:
                fh.write(program.to_source())
            print("  wrote %s" % path)
    return 0


def _committed_groups():
    """Every committed program group, (label, [program, ...]): the
    workload mixes, then the SPLASH apps."""
    from repro.workloads.uniprocessor import WORKLOAD_ORDER, build_workload
    from repro.workloads.splash import SPLASH_ORDER, build_app
    groups = []
    for name in WORKLOAD_ORDER:
        processes, _instances, _barriers = build_workload(name, scale=1.0)
        groups.append(("workload:%s" % name,
                       [p.program for p in processes]))
    for name in SPLASH_ORDER:
        app = build_app(name, 4, threads_per_node=2)
        groups.append(("splash:%s" % name, list(app.programs)))
    return groups


def _lint_programs(widths=(1, 2, 4), groups=None):
    """Verify every committed example program (workloads + SPLASH)."""
    from repro.analysis import verify_program
    from repro.config import PipelineParams
    threshold = PipelineParams().short_stall_threshold
    diags = []
    programs = 0
    seen = set()
    for _label, group in groups or _committed_groups():
        for program in group:
            if id(program) in seen:
                continue
            seen.add(id(program))
            programs += 1
            diags.extend(verify_program(program, threshold=threshold,
                                        widths=widths))
    return diags, programs


def _race_pass(groups):
    """Race-check every multi-context group of :func:`_committed_groups`.

    Returns ``(diags, suppressed, summary)``: the active (unsanctioned)
    diagnostics across all groups, the sanctioned findings as
    ``{"group", "code", "site", "rationale"}`` entries, and a per-code
    count summary.
    """
    from repro.analysis.races import (race_findings, split_sanctioned,
                                      findings_to_diagnostics)
    diags, suppressed = [], []
    counts = {}
    groups = [(label, programs) for label, programs in groups
              if len(programs) >= 2]
    for label, programs in groups:
        findings = race_findings(programs)
        active, sanctioned, rationales = split_sanctioned(findings,
                                                          programs)
        for diag in findings_to_diagnostics(active):
            diags.append(diag)
            counts[diag.code] = counts.get(diag.code, 0) + 1
        seen = set()
        for finding in sanctioned:
            site = "%s@pc=%d" % (finding.a.program, finding.a.pc)
            if (finding.code, site) in seen:
                continue
            seen.add((finding.code, site))
            suppressed.append({"group": label, "code": finding.code,
                               "site": site,
                               "rationale": rationales[finding]})
    summary = dict(sorted(counts.items()))
    summary["groups"] = len(groups)
    summary["suppressed"] = len(suppressed)
    return diags, suppressed, summary


def _render_race_audits(diags, suppressed):
    """The race pass's R704 audits summarised per program, then its
    sanctioned findings, one line each."""
    audits = {}
    for d in diags:
        if d.code == "R704":
            audits[d.program] = audits.get(d.program, 0) + 1
    lines = []
    if audits:
        lines.append("R704 unbounded-access audits (run with --json "
                     "for the full list): %s"
                     % ", ".join("%s=%d" % kv
                                 for kv in sorted(audits.items())))
    for entry in suppressed:
        lines.append("suppressed %(code)s %(group)s %(site)s "
                     "-- %(rationale)s" % entry)
    return "\n".join(lines)


def _lint(args):
    """The 'lint' verb: codebase rules and/or program verification,
    plus the race pass with --races."""
    import json as _json
    from repro.analysis import (lint_codebase, render_report, has_errors)
    both = not (args.codebase or args.programs)
    do_codebase = args.codebase or both
    do_programs = args.programs or both
    diags = []
    summary = {}
    suppressed_races = []
    groups = _committed_groups() if do_programs or args.races else None
    if do_codebase:
        codebase_diags, codebase_summary = lint_codebase()
        diags.extend(codebase_diags)
        summary["codebase"] = codebase_summary
    if do_programs:
        program_diags, programs = _lint_programs(groups=groups)
        diags.extend(program_diags)
        summary["programs"] = {
            "verified": programs,
            "errors": sum(1 for d in program_diags if d.is_error),
            "warnings": sum(1 for d in program_diags if not d.is_error),
        }
    if args.races:
        race_diags, suppressed_races, race_summary = _race_pass(groups)
        diags.extend(race_diags)
        summary["races"] = race_summary
    if args.json:
        payload = dict(summary)
        if suppressed_races:
            payload["suppressed_races"] = suppressed_races
        payload["diagnostics"] = [d.to_dict() for d in diags]
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        loud = [d for d in diags if d.code != "R704"]
        if loud:
            print(render_report(loud))
        race_text = _render_race_audits(diags, suppressed_races)
        if race_text:
            print(race_text)
        for section in sorted(summary):
            print("%s: %s" % (section, summary[section]))
    return 1 if has_errors(diags) else 0


EXPERIMENTS = {
    "summary": _summary,
    "analyze": _analyze,
    "export": _export,
    "configs": lambda ctx: print(configs.render_all()),
    "figure2": lambda ctx: print(figure2.render()),
    "figure3": lambda ctx: print(figure3.render()),
    "table4": lambda ctx: print(table4.render()),
    "table7": lambda ctx: print(table7.render(table7.run(ctx))),
    "figure6": lambda ctx: print(figures6_7.render(
        figures6_7.run(ctx, scheme="blocked"), scheme="blocked")),
    "figure7": lambda ctx: print(figures6_7.render(
        figures6_7.run(ctx, scheme="interleaved"), scheme="interleaved")),
    "table10": lambda ctx: print(table10.render(table10.run(ctx))),
    "figure8": lambda ctx: print(figures8_9.render(
        figures8_9.run(ctx, scheme="blocked"), scheme="blocked")),
    "figure9": lambda ctx: print(figures8_9.render(
        figures8_9.run(ctx, scheme="interleaved"), scheme="interleaved")),
    "uniprocessor": _uniproc,
    "multiprocessor": _mp,
}


def main(argv=None, _ready=None):
    from repro.experiments.cache import ResultCache, default_cache_dir
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["sweep", "cache",
                                                       "lint", "generate",
                                                       "serve", "submit",
                                                       "jobs"],
                        help="which table/figure to regenerate; 'sweep' "
                             "computes every point in parallel through "
                             "the on-disk cache and renders everything; "
                             "'cache' administers the cache; 'lint' runs "
                             "the static-analysis layer (codebase rules "
                             "and program verification, and with --races "
                             "the cross-context race analysis of every "
                             "committed multi-context group); 'generate' "
                             "emits a family of generated programs from "
                             "--spec/--seed; 'serve' runs submitted "
                             "jobs on a worker pool behind a TCP "
                             "server, 'submit' sends it a job, 'jobs' "
                             "lists its jobs' statuses")
    parser.add_argument("action", nargs="?", default=None,
                        help="for the 'cache' verb: stats (default) or "
                             "clear; for the 'jobs' verb: a job id to "
                             "show in full")
    parser.add_argument("--profile", choices=("fast", "paper"),
                        default="fast",
                        help="machine profile (paper = full-size caches; "
                             "orders of magnitude slower)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="multiprocessor node count (default 8)")
    parser.add_argument("--measure", type=int, default=None,
                        help="uniprocessor measurement window, cycles")
    parser.add_argument("--warmup", type=int, default=None,
                        help="uniprocessor warmup, cycles")
    parser.add_argument("--engine", choices=("burst", "naive"),
                        default="burst",
                        help="simulation engine for every computed point "
                             "(bit-identical by contract: naive is the "
                             "per-cycle reference, burst fast-forwards "
                             "idle and stall windows and retires "
                             "precompiled straight-line runs in one step)")
    parser.add_argument("--cprofile", nargs="?", metavar="PATH",
                        const=os.path.join("results", "profile.pstats"),
                        default=None,
                        help="wrap the whole run in cProfile; writes the "
                             "pstats dump to PATH (default "
                             "results/profile.pstats) and a top-25 "
                             "cumulative summary to PATH.txt")
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--jobs", type=int,
                        default=os.cpu_count() or 1,
                        help="worker processes for 'sweep' (default: all "
                             "cores; 1 = serial)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated uniprocessor workload "
                             "subset for 'sweep' (default: all)")
    parser.add_argument("--apps", default=None,
                        help="comma-separated SPLASH app subset for "
                             "'sweep' (default: all)")
    service_group = parser.add_argument_group(
        "service", "options for the 'serve'/'submit'/'jobs' verbs")
    service_group.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="'serve' (required): listen for TCP clients on HOST:PORT "
             "(PORT 0 = ephemeral)")
    service_group.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="'submit'/'jobs' (required): the 'serve --listen' server "
             "to talk to")
    service_group.add_argument(
        "--stream", action="store_true",
        help="'submit': after printing the job id, stream each "
             "result payload to stdout as its point completes")
    service_group.add_argument(
        "--idempotency-key", default=None,
        help="'submit': client-chosen key; re-submitting with the same "
             "key returns the existing job id instead of duplicating "
             "the work (without one, each submit carries a fresh key)")
    service_group.add_argument(
        "--points", default=None,
        help="'submit': explicit comma-separated points as "
             "kind:name:scheme:n_contexts (e.g. uniproc:R1:single:1,"
             "uniproc:R1:interleaved:2); default: the full sweep of "
             "--workloads/--apps")
    service_group.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for 'serve' (default 2)")
    service_group.add_argument(
        "--serve-seconds", type=float, default=None,
        help="'serve': hard wall-clock stop for the serving loop")
    service_group.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock timeout in seconds (submit: recorded "
             "in the spec; serve: default for specs without one)")
    service_group.add_argument(
        "--max-retries", type=int, default=2,
        help="'submit': per-point retry budget on worker death")
    gen_group = parser.add_argument_group(
        "generate", "options for the 'generate' verb")
    gen_group.add_argument(
        "--spec", default=None,
        help="'generate': GenSpec as k=v;k=v (or a JSON object); "
             "omitted fields take their defaults, e.g. "
             "\"fp_fraction=0.25;sharing=lock\"")
    gen_group.add_argument(
        "--count", type=int, default=1,
        help="'generate': family size; member i uses seed+i and is "
             "named <name>-%%04d (default 1)")
    gen_group.add_argument(
        "--emit-asm", default=None, metavar="DIR",
        help="'generate': write each member's re-assemblable source "
             "to DIR/<name>.s")
    gen_group.add_argument(
        "--no-verify", action="store_true",
        help="'generate': skip birth verification (fast bulk emission)")
    lint_group = parser.add_argument_group(
        "lint", "options for the 'lint' verb")
    lint_group.add_argument("--codebase", action="store_true",
                            help="lint src/repro with the determinism "
                                 "and stats-parity rules (with neither "
                                 "this nor --programs: both)")
    lint_group.add_argument("--programs", action="store_true",
                            help="run the static verifier + burst audit "
                                 "on every committed example program")
    lint_group.add_argument("--races", action="store_true",
                            help="also race-check every committed "
                                 "multi-context group (R7xx rules)")
    lint_group.add_argument("--json", action="store_true",
                            help="emit lint results as JSON")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default $%s or %r); "
                             "passing this enables the cache for any verb"
                             % ("REPRO_CACHE_DIR", default_cache_dir()))
    args = parser.parse_args(argv)

    if args.experiment == "cache":
        if args.action not in (None, "stats", "clear"):
            parser.error("cache action must be 'stats' or 'clear', "
                         "not %r" % (args.action,))
        if args.cache_dir is None:
            args.cache_dir = default_cache_dir()
        return _cache_admin(args)
    if args.experiment == "lint":
        return _lint(args)
    if args.experiment == "generate":
        return _generate(args)
    if args.experiment in ("serve", "submit", "jobs"):
        return _service_verb(parser, args, _ready)

    from repro.config import SystemConfig, MultiprocessorParams
    config = (SystemConfig.paper() if args.profile == "paper"
              else SystemConfig.fast())
    kwargs = {"config": config, "seed": args.seed,
              "engine": args.engine}
    if args.nodes is not None:
        kwargs["mp_params"] = MultiprocessorParams(n_nodes=args.nodes)
    if args.measure is not None:
        kwargs["measure"] = args.measure
    if args.warmup is not None:
        kwargs["warmup"] = args.warmup
    # The cache is on for 'sweep' unless --no-cache; other verbs opt in
    # by passing --cache-dir (keeps single-figure runs side-effect free).
    if not args.no_cache and (args.experiment == "sweep"
                              or args.cache_dir is not None):
        kwargs["cache"] = ResultCache(args.cache_dir)
    ctx = ExperimentContext(**kwargs)
    profiler = None
    if args.cprofile is not None:
        import cProfile
        profiler = cProfile.Profile()
    t0 = time.time()
    if profiler is not None:
        profiler.enable()
    try:
        if args.experiment == "sweep":
            _sweep(ctx, args)
        else:
            EXPERIMENTS[args.experiment](ctx)
    finally:
        if profiler is not None:
            profiler.disable()
            _write_profile(profiler, args.cprofile)
    print("\n[%.1f s]" % (time.time() - t0), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
