"""Command-line interface: generate → cluster → evaluate → render.

A pipeline for working with spatial-network clustering from the shell::

    python -m repro generate --workload OL --scale 0.05 --out city.json
    python -m repro cluster city.json --algorithm eps-link --eps 0.5 --out clusters.json
    python -m repro evaluate city.json clusters.json
    python -m repro render city.json --result clusters.json --out map.svg
    python -m repro info city.json
    python -m repro check store.db
    python -m repro serve city.json --workers 4 < requests.ldjson

``check`` verifies a disk network store (header, page checksums, index
invariants, record bounds, counts) and exits non-zero when anything is
wrong — see :mod:`repro.storage.verify`; ``repair`` salvages a store that
``check`` condemned (:mod:`repro.recovery.repair`).  ``cluster`` accepts
operation budgets (``--max-expansions``, ``--max-distance-computations``)
that shed oversized runs with a clean report instead of an unbounded
stall, and recovery flags (``--checkpoint``, ``--resume``, ``--retries``)
that let an interrupted run restart from its last snapshot — see
``docs/robustness.md`` for the exit-code table and checkpoint format.
``cluster --timeout-ms`` bounds a run by wall clock (exit 3, resumable),
and ``serve`` answers line-delimited JSON queries concurrently with
bounded admission and per-request deadlines — see ``docs/resilience.md``.

``cluster`` and ``evaluate`` take ``--stats`` (print the :mod:`repro.obs`
per-phase time + counter table) and ``--trace FILE`` (write the run's
hierarchical timing spans as JSONL).

Workloads and results travel as the JSON documents of :mod:`repro.io`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys

from repro import obs
from repro.datagen import (
    ClusterSpec,
    delaunay_road_network,
    generate_clustered_points,
    grid_city,
    load_network,
    suggest_eps,
)
from repro.datagen.clusters import well_separated_seed_edges
from repro.eval import adjusted_rand_index, normalized_mutual_information, purity
from repro.exceptions import Cancelled, Interrupted, ParameterError, WalCorruptError
from repro.io import (
    load_result_file,
    load_workload_file,
    save_result,
    save_workload,
)
from repro.network.components import is_connected

__all__ = ["main"]

ALGORITHMS = ("k-medoids", "eps-link", "dbscan", "single-link", "optics")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.workload:
        network = load_network(args.workload, scale=args.scale, seed=args.seed)
    elif args.grid:
        width, _, height = args.grid.partition("x")
        network = grid_city(int(width), int(height or width), seed=args.seed)
    else:
        network = delaunay_road_network(args.delaunay, seed=args.seed)

    points = None
    if args.points:
        if args.s_init is not None:
            s_init = args.s_init
        else:
            # Spread the clusters over ~20% of the network (see datagen).
            s_init = 0.2 * network.total_weight() / args.points / 3.0
        spec = ClusterSpec(k=args.k, s_init=s_init,
                           outlier_fraction=args.outliers)
        seeds = well_separated_seed_edges(network, args.k, seed=args.seed + 2)
        points = generate_clustered_points(
            network, args.points, spec, seed=args.seed + 1, seed_edges=seeds
        )
        print(f"suggested eps (1.5 * s_init * F): {suggest_eps(spec):.6g}")
    save_workload(args.out, network, points)
    print(f"wrote {args.out}: {network.num_nodes} nodes, "
          f"{network.num_edges} edges, {len(points) if points else 0} points")
    return 0


def _build_budget(args: argparse.Namespace):
    """An OpBudget from the --max-* flags, or None when none were given."""
    caps = (
        getattr(args, "max_expansions", None),
        getattr(args, "max_distance_computations", None),
        getattr(args, "max_page_reads", None),
    )
    if all(cap is None for cap in caps):
        return None
    from repro.faults import OpBudget

    return OpBudget(
        max_expansions=caps[0],
        max_distance_computations=caps[1],
        max_page_reads=caps[2],
    )


def _cluster_spec(args: argparse.Namespace) -> dict:
    """The ``cluster`` flags as the wire's ``cluster`` request fields."""
    spec = {
        "algorithm": args.algorithm,
        "eps": args.eps,
        "k": args.k,
        "min_pts": args.min_pts,
        "restarts": args.restarts,
        "seed": args.seed,
        "delta": args.delta,
    }
    if args.algorithm == "single-link":
        if args.stop == "distance" and args.eps is None:
            raise SystemExit("--stop distance requires --eps")
        spec["k"] = args.k if args.stop == "k" else None
        spec["stop_distance"] = args.eps if args.stop == "distance" else None
    return spec


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable observability when ``--stats``/``--trace`` ask for it."""
    wanted = bool(getattr(args, "stats", False) or getattr(args, "trace", None))
    if wanted:
        try:
            obs.enable(trace_path=args.trace)
        except OSError as exc:
            raise SystemExit(f"cannot open trace file {args.trace}: {exc}")
    return wanted


def _obs_end(args: argparse.Namespace, file=None) -> None:
    """Close the trace and print the phase/counter table.

    ``serve`` passes ``file=sys.stderr``: its stdout is the LDJSON wire,
    so no status line may land there.
    """
    obs.disable()
    if args.trace:
        print(f"wrote trace {args.trace}", file=file)
    if args.stats:
        print(file=file)
        print(obs.format_table(), file=file)


def _checkpoint_meta(args: argparse.Namespace) -> dict:
    """What a checkpoint must match to be resumable by this invocation."""
    return {
        "algorithm": args.algorithm,
        "workload": os.path.basename(args.workload),
        "eps": args.eps,
        "k": args.k,
        "min_pts": args.min_pts,
        "delta": args.delta,
        "stop": args.stop,
        "restarts": args.restarts,
        "seed": args.seed,
    }


def _sigterm(signum, frame):
    # SIGTERM/SIGINT unwind through the same typed-interrupt path as a
    # deadline expiry or budget abort: Cancelled -> clean drain -> exit 3.
    try:
        name = signal.Signals(signum).name
    except ValueError:  # pragma: no cover - unknown signal number
        name = f"signal {signum}"
    raise Cancelled(name)


def _interrupt_reason(exc: Interrupted) -> str:
    """One stderr line describing a typed interrupt."""
    if isinstance(exc, Cancelled):
        if exc.reason == "SIGTERM":
            return "terminated by SIGTERM"
        return f"cancelled: {exc.reason}"
    return f"aborted cleanly: {exc} (algorithm {exc.algorithm})"


def _setup_recovery(args: argparse.Namespace, algorithm) -> str | None:
    """Wire --checkpoint/--resume onto ``algorithm``; returns the live
    checkpoint path (None when checkpointing is off)."""
    from repro.recovery import CheckpointManager, load_checkpoint, validate_meta

    from repro.exceptions import CheckpointError

    ckpt_path = args.checkpoint
    if args.resume:
        if os.path.exists(args.resume):
            try:
                doc = load_checkpoint(args.resume)
                validate_meta(doc["meta"], _checkpoint_meta(args))
            except CheckpointError as exc:
                raise SystemExit(f"cannot resume: {exc}")
            algorithm.resume_from(doc["state"])
            print(f"resuming from checkpoint {args.resume}")
        else:
            # The interrupted run died before its first snapshot.
            print(f"no checkpoint at {args.resume}; starting fresh")
        if ckpt_path is None:
            ckpt_path = args.resume  # keep snapshotting the same file
    if ckpt_path is not None:
        algorithm.checkpoint = CheckpointManager(
            ckpt_path, every=args.checkpoint_every, meta=_checkpoint_meta(args)
        )
    return ckpt_path


def _cmd_cluster(args: argparse.Namespace) -> int:
    network, points = load_workload_file(args.workload)
    if len(points) == 0:
        raise SystemExit("the workload holds no points to cluster")
    from repro.serve.service import build_algorithm

    try:
        algorithm = build_algorithm(
            _cluster_spec(args), network, points,
            budget=_build_budget(args),
            backend=args.backend,
        )
    except ParameterError as exc:
        raise SystemExit(str(exc))
    ckpt_path = _setup_recovery(args, algorithm)
    observing = _obs_begin(args)
    if args.dendrogram:
        if args.algorithm != "single-link":
            raise SystemExit("--dendrogram is only available for single-link")
        dendrogram = algorithm.build_dendrogram()
        with open(args.dendrogram, "w", encoding="utf-8") as fh:
            json.dump(dendrogram.to_dict(), fh)
        print(f"wrote {args.dendrogram}: {dendrogram.num_leaves} leaves, "
              f"{len(dendrogram.merges)} merges")
    if args.timeout_ms is not None:
        from repro.resilience import Deadline

        algorithm.deadline = Deadline(args.timeout_ms / 1000.0)
    old_term = None
    try:
        if ckpt_path is not None:
            # A polite kill leaves the latest snapshot behind for --resume.
            with contextlib.suppress(ValueError):  # non-main thread
                old_term = signal.signal(signal.SIGTERM, _sigterm)
        with contextlib.ExitStack() as stack:
            if args.retries:
                from repro.recovery import RetryPolicy, retrying

                stack.enter_context(
                    retrying(RetryPolicy(max_attempts=args.retries))
                )
            result = algorithm.run()
    except Interrupted as exc:
        # One path for budget aborts, deadline expiry, and SIGTERM: any
        # snapshot taken before the interrupt is left for --resume, and
        # the exit code is 3.
        if observing:
            _obs_end(args)
        if isinstance(exc, Cancelled) and exc.algorithm is None:
            exc.algorithm = args.algorithm  # SIGTERM outside algorithm.run()
        hint = (
            f"; resume with --resume {ckpt_path}" if ckpt_path is not None
            else ""
        )
        print(_interrupt_reason(exc) + hint, file=sys.stderr)
        return 3
    finally:
        if old_term is not None:
            signal.signal(signal.SIGTERM, old_term)
    if ckpt_path is not None:
        algorithm.checkpoint.remove()  # the run completed; snapshot obsolete
    save_result(args.out, result)
    print(f"{result.algorithm}: {result.num_clusters} clusters, "
          f"{len(result.outliers())} outliers "
          f"({result.stats.get('wall_time_s', 0):.3f}s)")
    print(f"wrote {args.out}")
    if observing:
        _obs_end(args)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    network, points = load_workload_file(args.workload)
    result = load_result_file(args.result)
    labels = {p.point_id: p.label for p in points}
    if any(label is None for label in labels.values()):
        raise SystemExit("the workload carries no ground-truth labels")
    predicted = dict(result.assignment)
    observing = _obs_begin(args)
    with obs.span("evaluate", algorithm=result.algorithm):
        report = {
            "algorithm": result.algorithm,
            "clusters": result.num_clusters,
            "outliers": len(result.outliers()),
            "ari": round(adjusted_rand_index(labels, predicted, noise="drop"), 4),
            "nmi": round(
                normalized_mutual_information(labels, predicted, noise="drop"), 4
            ),
            "purity": round(purity(labels, predicted, noise="drop"), 4),
        }
    print(json.dumps(report, indent=2))
    if observing:
        _obs_end(args)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.viz import render_network_svg

    network, points = load_workload_file(args.workload)
    assignment = None
    if args.result:
        assignment = load_result_file(args.result).assignment
    render_network_svg(
        network,
        points if len(points) else None,
        assignment=assignment,
        path=args.out,
        width=args.width,
    )
    print(f"wrote {args.out}")
    return 0


def _finding_doc(f) -> dict:
    return {
        "severity": f.severity,
        "kind": f.kind,
        "page_id": f.page_id,
        "offset": f.offset,
        "message": f.message,
    }


def _report_findings(args, key: str, path: str, findings) -> int:
    """Print one verifier's findings report; returns the exit code.

    Text: each finding, then ``<path>: OK`` or ``<path>: N problem(s)
    found``.  ``--json``: one document naming ``path`` under ``key``,
    with the exit code and every finding.  The exit code is 2 when
    anything was found, else 0.
    """
    code = 2 if findings else 0
    if args.json:
        print(json.dumps({
            key: path,
            "exit_code": code,
            "findings": [_finding_doc(f) for f in findings],
        }, indent=2))
    else:
        for f in findings:
            print(f)
        print(f"{path}: " + (
            f"{len(findings)} problem(s) found" if findings else "OK"
        ))
    return code


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.storage.verify import verify_store

    return _report_findings(args, "store", args.store,
                            verify_store(args.store))


def _cmd_wal_verify(args: argparse.Namespace) -> int:
    from repro.live import verify_wal

    return _report_findings(args, "log", args.log, verify_wal(args.log))


def _cmd_wal_replay(args: argparse.Namespace) -> int:
    from repro.exceptions import ReplayError
    from repro.live import LiveSession, WriteAheadLog

    network, points = load_workload_file(args.workload)
    try:
        wal = WriteAheadLog(args.log, read_only=True)
    except OSError as exc:
        raise SystemExit(f"cannot open mutation log {args.log}: {exc}")
    except WalCorruptError as exc:
        print(f"{args.log}: corrupt — {exc}", file=sys.stderr)
        return 2
    session = LiveSession(network, points, eps=args.eps, wal=wal)
    try:
        replayed = session.replay_wal()
    except (WalCorruptError, ReplayError) as exc:
        print(f"{args.log}: replay failed — {exc}", file=sys.stderr)
        return 2
    finally:
        session.close()
    snap = session.snapshot()
    doc = {
        "log": args.log,
        "replayed": replayed,
        "epoch": snap["epoch"],
        "points": snap["num_points"],
        "clusters": snap["num_clusters"],
    }
    if args.json:
        doc["assignment"] = snap["assignment"]
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"{args.log}: replayed {replayed} mutation(s) to epoch "
            f"{doc['epoch']}: {doc['points']} point(s) in "
            f"{doc['clusters']} cluster(s) at eps={args.eps}"
        )
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.recovery import repair_store

    out = args.out if args.out else args.store + ".repaired"
    try:
        report = repair_store(args.store, out, page_size_hint=args.page_size)
    except OSError as exc:
        raise SystemExit(f"cannot repair {args.store}: {exc}")
    doc = report.summary()
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        if not report.recoverable:
            print(f"{args.store}: unrecoverable "
                  f"({'; '.join(report.notes) or 'nothing salvageable'})")
        else:
            salv = ", ".join(f"{v} {k}" for k, v in report.salvaged.items())
            print(f"{args.store}: salvaged {salv} "
                  f"({report.lost_pages} page(s) quarantined)")
            if report.full_recovery:
                print(f"full recovery; clean store written to {out}")
            else:
                lost = report.lost
                detail = (
                    ", ".join(f"{v} {k}" for k, v in lost.items())
                    if lost is not None else "unknown (metadata unreadable)"
                )
                print(f"partial recovery — lost: {detail}; "
                      f"salvaged store written to {out}")
    return 0 if report.full_recovery else 2


def _cmd_info(args: argparse.Namespace) -> int:
    network, points = load_workload_file(args.workload)
    degrees = [network.degree(n) for n in network.nodes()]
    labels = {p.label for p in points}
    info = {
        "name": network.name,
        "nodes": network.num_nodes,
        "edges": network.num_edges,
        "connected": is_connected(network),
        "total_weight": round(network.total_weight(), 4),
        "avg_degree": round(sum(degrees) / len(degrees), 3) if degrees else 0,
        "points": len(points),
        "populated_edges": points.num_populated_edges(),
        "labels": sorted(x for x in labels if x is not None),
    }
    print(json.dumps(info, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Answer line-delimited JSON queries over one workload.

    Reads requests from ``--input`` (or stdin) until EOF, submits them all
    to a :class:`~repro.serve.QueryService` — so a fast request stream
    exercises admission control for real: requests beyond the queue bound
    are shed with ``Overloaded`` responses — and writes one JSON response
    per request, in input order, to ``--output`` (or stdout).

    ``--processes N`` swaps the threaded pool for a supervised
    :class:`~repro.serve.SupervisedPool` of N worker processes (restart
    with backoff, in-flight failover, poison quarantine — see
    ``docs/resilience.md``).  SIGTERM/SIGINT *drain*: intake stops, every
    already-read request is answered, the final metrics snapshot is
    flushed, and the exit code is 3 — the typed-interrupt convention.
    """
    from repro.serve import (
        QueryService,
        SupervisedPool,
        error_response,
        parse_request,
        result_response,
    )
    from repro.serve.frontend import check_backend, open_live_session

    network, points = load_workload_file(args.workload)
    if len(points) == 0:
        raise SystemExit("the workload holds no points to serve")
    if args.processes < 0:
        raise SystemExit(f"--processes must be >= 0, got {args.processes}")
    if args.metrics_file and args.metrics_interval_s <= 0:
        raise SystemExit(
            f"--metrics-interval-s must be > 0, got {args.metrics_interval_s}"
        )
    try:
        check_backend(args.backend, live=bool(args.wal))
    except ParameterError as exc:
        raise SystemExit(str(exc))
    # Serve-specific enable: --metrics-file alone turns telemetry on, and
    # --trace records *request-scoped* spans (only requests that carry
    # "trace": true), not the whole serving session.
    observing = bool(args.stats or args.trace or args.metrics_file)
    if observing:
        try:
            obs.enable(trace_path=args.trace, sample_requests=bool(args.trace))
        except OSError as exc:
            raise SystemExit(f"cannot open trace file {args.trace}: {exc}")
    default_timeout_s = (
        args.default_timeout_ms / 1000.0
        if args.default_timeout_ms is not None else None
    )
    with contextlib.ExitStack() as stack:
        if args.metrics_file:
            from repro.obs import MetricsExporter

            try:
                stack.enter_context(MetricsExporter(
                    args.metrics_file, interval_s=args.metrics_interval_s,
                ))
            except OSError as exc:
                raise SystemExit(
                    f"cannot open metrics file {args.metrics_file}: {exc}"
                )
        if args.retries:
            from repro.recovery import RetryPolicy, retrying

            stack.enter_context(retrying(RetryPolicy(max_attempts=args.retries)))
        if args.breaker_threshold:
            from repro.resilience import CircuitBreaker, breaking

            stack.enter_context(breaking(CircuitBreaker(
                failure_threshold=args.breaker_threshold,
                reset_timeout_s=args.breaker_reset_ms / 1000.0,
            )))
        in_fh = (
            stack.enter_context(open(args.input, encoding="utf-8"))
            if args.input else sys.stdin
        )
        out_fh = (
            stack.enter_context(open(args.output, "w", encoding="utf-8"))
            if args.output else sys.stdout
        )
        session = None
        try:
            if args.processes > 0:
                service = SupervisedPool(
                    args.workload,
                    processes=args.processes,
                    queue_depth=args.queue_depth,
                    default_timeout_s=default_timeout_s,
                    landmarks=args.landmarks,
                    distance_cache_mb=args.distance_cache_mb,
                    max_restarts=args.max_restarts,
                    restart_window_s=args.restart_window_s,
                    wal_path=args.wal,
                    live_eps=args.live_eps,
                    backend=args.backend,
                )
                pool_desc = f"{args.processes} process(es)"
            else:
                if args.wal:
                    # The threaded executor borrows its session; this
                    # command owns it and closes it after the service.
                    session = open_live_session(
                        network, points, args.wal, eps=args.live_eps
                    )
                service = QueryService(
                    network, points,
                    workers=args.workers,
                    queue_depth=args.queue_depth,
                    default_timeout_s=default_timeout_s,
                    landmarks=args.landmarks,
                    distance_cache_mb=args.distance_cache_mb,
                    session=session,
                    backend=args.backend,
                )
                pool_desc = f"{args.workers} worker(s)"
        except (OSError, WalCorruptError) as exc:
            if not args.wal:
                raise
            raise SystemExit(f"cannot open mutation log {args.wal}: {exc}")
        if args.wal:
            print(
                f"mutation log {args.wal} at epoch {service.session.epoch}",
                file=sys.stderr,
            )
        pending: list[tuple[dict, object]] = []  # (request, future-or-error)
        served = 0
        interrupted = None
        # SIGTERM/SIGINT drain: intake stops (the handler raises Cancelled
        # out of the read loop), but everything already read is answered
        # and the metrics exporter still flushes its final snapshot on the
        # way out.  Handlers are restored before the drain so a second
        # signal escalates to the default (hard) behaviour.
        old_handlers = []
        with contextlib.suppress(ValueError):  # non-main thread
            for signum in (signal.SIGTERM, signal.SIGINT):
                old_handlers.append(
                    (signum, signal.signal(signum, _sigterm))
                )
        try:
            try:
                for lineno, line in enumerate(in_fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        request = parse_request(line, lineno)
                    except Exception as exc:
                        rid = _line_id(line)
                        pending.append(
                            ({"id": rid} if rid is not None else {}, exc)
                        )
                        continue
                    try:
                        pending.append((request, service.submit(request)))
                    except Exception as exc:
                        # Overloaded sheds, ParameterError rejects a bad
                        # field (e.g. timeout_ms): either way the failure
                        # belongs to this one request, never to the
                        # serving session.
                        pending.append((request, exc))
            except Cancelled as exc:
                interrupted = exc
            finally:
                for signum, handler in old_handlers:
                    signal.signal(signum, handler)
            for request, outcome in pending:
                if isinstance(outcome, BaseException):
                    doc = error_response(request, outcome)
                else:
                    try:
                        doc = result_response(request, outcome.result())
                    except Exception as exc:
                        doc = error_response(request, exc)
                served += doc["ok"]
                print(json.dumps(doc), file=out_fh)
        finally:
            service.close()
            if session is not None:
                session.close()  # releases the threaded tier's WAL handle
    print(
        f"served {served}/{len(pending)} request(s) "
        f"({pool_desc}, queue depth {args.queue_depth})",
        file=sys.stderr,
    )
    if args.metrics_file:
        print(f"wrote metrics {args.metrics_file}", file=sys.stderr)
    if observing:
        _obs_end(args, file=sys.stderr)
    if interrupted is not None:
        print(
            f"{_interrupt_reason(interrupted)}; drained "
            f"{len(pending)} admitted request(s)",
            file=sys.stderr,
        )
        return 3
    return 0


def _line_id(line: str) -> object:
    """Best-effort request id from a line that failed parsing/admission."""
    try:
        doc = json.loads(line)
        if isinstance(doc, dict) and "id" in doc:
            return doc["id"]
    except json.JSONDecodeError:
        pass
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clustering objects on a spatial network (SIGMOD 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic workload")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=["NA", "SF", "TG", "OL"],
                        help="paper-network analogue")
    source.add_argument("--grid", metavar="WxH", help="perturbed grid city")
    source.add_argument("--delaunay", type=int, metavar="N",
                        help="Delaunay road network with N nodes")
    gen.add_argument("--scale", type=float, default=1 / 16,
                     help="fraction of the paper network's size")
    gen.add_argument("--points", type=int, default=0,
                     help="number of objects to plant (0 = network only)")
    gen.add_argument("--k", type=int, default=10, help="planted clusters")
    gen.add_argument("--s-init", type=float, default=None,
                     help="initial separation distance (auto when omitted)")
    gen.add_argument("--outliers", type=float, default=0.01,
                     help="outlier fraction")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output workload JSON")
    gen.set_defaults(func=_cmd_generate)

    clus = sub.add_parser("cluster", help="run a clustering algorithm")
    clus.add_argument("workload", help="workload JSON from `generate`")
    clus.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    clus.add_argument("--eps", type=float, default=None,
                      help="eps / max-eps / stop distance")
    clus.add_argument("--k", type=int, default=10,
                      help="clusters (k-medoids, single-link --stop k)")
    clus.add_argument("--min-pts", type=int, default=2,
                      help="MinPts (dbscan/optics) or min_sup (eps-link)")
    clus.add_argument("--delta", type=float, default=0.0,
                      help="single-link pre-merge threshold")
    clus.add_argument("--stop", choices=["k", "distance", "all"], default="all",
                      help="single-link stopping rule")
    clus.add_argument("--restarts", type=int, default=1,
                      help="k-medoids random restarts")
    clus.add_argument("--seed", type=int, default=0)
    clus.add_argument("--dendrogram", default=None,
                      help="(single-link) also write the dendrogram JSON here")
    clus.add_argument("--out", required=True, help="output clustering JSON")
    clus.add_argument("--stats", action="store_true",
                      help="print the repro.obs per-phase time/counter table")
    clus.add_argument("--trace", default=None, metavar="FILE",
                      help="write hierarchical timing spans as JSONL to FILE")
    clus.add_argument("--max-expansions", type=int, default=None,
                      help="abort cleanly after this many traversal settles")
    clus.add_argument("--max-distance-computations", type=int, default=None,
                      help="abort cleanly after this many distance evaluations")
    clus.add_argument("--max-page-reads", type=int, default=None,
                      help="abort cleanly after this many physical page reads")
    clus.add_argument("--checkpoint", default=None, metavar="FILE",
                      help="periodically snapshot resumable state to FILE")
    clus.add_argument("--checkpoint-every", type=int, default=64, metavar="N",
                      help="snapshot every N iteration boundaries (default 64)")
    clus.add_argument("--resume", default=None, metavar="FILE",
                      help="resume from the checkpoint at FILE (fresh run "
                           "when the file does not exist yet)")
    clus.add_argument("--retries", type=int, default=0, metavar="N",
                      help="retry transient I/O errors up to N attempts with "
                           "exponential backoff (0 = off)")
    clus.add_argument("--timeout-ms", type=float, default=None, metavar="T",
                      help="abort cleanly (exit 3, checkpoint kept) once the "
                           "run exceeds this wall-clock budget")
    clus.add_argument("--backend", choices=["dict", "csr"], default="dict",
                      help="traversal backend: dict (default, the "
                           "bit-exactness oracle) or csr (freeze the "
                           "network into flat arrays with array-native "
                           "Dijkstra kernels; identical results)")
    clus.set_defaults(func=_cmd_cluster)

    srv = sub.add_parser(
        "serve", help="answer line-delimited JSON queries over a workload"
    )
    srv.add_argument("workload", help="workload JSON from `generate`")
    srv.add_argument("--input", default=None, metavar="FILE",
                     help="read requests from FILE instead of stdin")
    srv.add_argument("--output", default=None, metavar="FILE",
                     help="write responses to FILE instead of stdout")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="worker threads (default 2)")
    srv.add_argument("--processes", type=int, default=0, metavar="N",
                     help="serve from N supervised worker *processes* "
                          "instead of threads: dead workers restart with "
                          "capped exponential backoff, in-flight idempotent "
                          "requests fail over, poison requests are "
                          "quarantined (0 = threaded; see "
                          "docs/resilience.md)")
    srv.add_argument("--max-restarts", type=int, default=3, metavar="M",
                     help="restarts a worker slot may need in a row before "
                          "its storm circuit opens and the slot degrades "
                          "(default 3; only with --processes)")
    srv.add_argument("--restart-window-s", type=float, default=5.0,
                     metavar="W",
                     help="cool-down window of the restart-storm circuit "
                          "(default 5.0; only with --processes)")
    srv.add_argument("--queue-depth", type=int, default=8, metavar="M",
                     help="admission queue bound; beyond it requests are "
                          "shed with Overloaded (default 8)")
    srv.add_argument("--default-timeout-ms", type=float, default=None,
                     metavar="T",
                     help="per-request deadline for requests that do not "
                          "carry their own timeout_ms (default: none)")
    srv.add_argument("--retries", type=int, default=0, metavar="N",
                     help="retry transient I/O errors up to N attempts")
    srv.add_argument("--breaker-threshold", type=int, default=0, metavar="F",
                     help="open a circuit breaker on the storage read path "
                          "after F consecutive failures (0 = off)")
    srv.add_argument("--breaker-reset-ms", type=float, default=1000.0,
                     metavar="MS",
                     help="breaker cool-down before half-open probes "
                          "(default 1000)")
    srv.add_argument("--landmarks", type=int, default=0, metavar="L",
                     help="accelerate range/knn with L landmark distance "
                          "bounds shared across workers (0 = off)")
    srv.add_argument("--distance-cache-mb", type=float, default=0.0,
                     metavar="MB",
                     help="serve repeated queries from an MB-bounded memo "
                          "shared across workers (0 = off)")
    srv.add_argument("--wal", default=None, metavar="FILE",
                     help="enable the live mutation ops (mutate / "
                          "subscribe_epoch / snapshot) backed by an "
                          "append-only write-ahead mutation log at FILE; "
                          "an existing log is replayed before serving, so "
                          "every previously acknowledged mutation survives "
                          "a crash (see docs/robustness.md)")
    srv.add_argument("--live-eps", type=float, default=1.0, metavar="E",
                     help="eps of the incrementally maintained ε-Link "
                          "clustering served by snapshot (default 1.0; "
                          "only with --wal, and must match across "
                          "restarts of the same log)")
    srv.add_argument("--backend", choices=["dict", "csr"], default="dict",
                     help="traversal backend: dict (default) or csr "
                          "(freeze the workload into flat arrays at "
                          "startup; identical responses; incompatible "
                          "with --wal)")
    srv.add_argument("--stats", action="store_true",
                     help="print the repro.obs per-phase time/counter table")
    srv.add_argument("--trace", default=None, metavar="FILE",
                     help="record spans of requests carrying \"trace\": true "
                          "as JSONL to FILE (request-scoped tracing)")
    srv.add_argument("--metrics-file", default=None, metavar="FILE",
                     help="append periodic JSONL metrics snapshots "
                          "(counters, histograms, gauges) to FILE")
    srv.add_argument("--metrics-interval-s", type=float, default=10.0,
                     metavar="S",
                     help="seconds between --metrics-file snapshots "
                          "(default 10)")
    srv.set_defaults(func=_cmd_serve)

    ev = sub.add_parser("evaluate", help="score a clustering vs ground truth")
    ev.add_argument("workload")
    ev.add_argument("result")
    ev.add_argument("--stats", action="store_true",
                    help="print the repro.obs per-phase time/counter table")
    ev.add_argument("--trace", default=None, metavar="FILE",
                    help="write hierarchical timing spans as JSONL to FILE")
    ev.set_defaults(func=_cmd_evaluate)

    ren = sub.add_parser("render", help="render a workload/clustering to SVG")
    ren.add_argument("workload")
    ren.add_argument("--result", default=None, help="clustering JSON to colour by")
    ren.add_argument("--width", type=int, default=800)
    ren.add_argument("--out", required=True)
    ren.set_defaults(func=_cmd_render)

    inf = sub.add_parser("info", help="summarise a workload file")
    inf.add_argument("workload")
    inf.set_defaults(func=_cmd_info)

    chk = sub.add_parser(
        "check", help="verify a disk network store's integrity"
    )
    chk.add_argument("store", help="network-store file built by NetworkStore")
    chk.add_argument("--json", action="store_true",
                     help="emit findings as JSON instead of text")
    chk.set_defaults(func=_cmd_check)

    walp = sub.add_parser(
        "wal",
        help="verify / replay serve-tier mutation logs (RWAL files)",
    )
    wal_sub = walp.add_subparsers(dest="wal_command", required=True)
    walv = wal_sub.add_parser(
        "verify",
        help="check a mutation log's integrity (header, per-record CRCs, "
             "sequence continuity, torn tail)",
    )
    walv.add_argument("log", help="mutation log from `repro serve --wal`")
    walv.add_argument("--json", action="store_true",
                      help="emit findings as JSON instead of text")
    walv.set_defaults(func=_cmd_wal_verify)
    walr = wal_sub.add_parser(
        "replay",
        help="replay a mutation log over a workload and report the "
             "resulting epoch and clustering",
    )
    walr.add_argument("log", help="mutation log from `repro serve --wal`")
    walr.add_argument("--workload", required=True, metavar="FILE",
                      help="the workload JSON the log's mutations apply to")
    walr.add_argument("--eps", type=float, default=1.0, metavar="E",
                      help="eps of the maintained ε-Link clustering "
                           "(default 1.0; must match the serving value)")
    walr.add_argument("--json", action="store_true",
                      help="emit the final state (including the full "
                           "cluster assignment) as JSON")
    walr.set_defaults(func=_cmd_wal_replay)

    rep = sub.add_parser(
        "repair", help="salvage a damaged network store into a clean copy"
    )
    rep.add_argument("store", help="damaged network-store file")
    rep.add_argument("--out", default=None,
                     help="rebuilt store path (default: STORE.repaired)")
    rep.add_argument("--page-size", type=int, default=None, metavar="N",
                     help="page-size hint when the header is unreadable")
    rep.add_argument("--json", action="store_true",
                     help="emit the repair report as JSON")
    rep.set_defaults(func=_cmd_repair)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
