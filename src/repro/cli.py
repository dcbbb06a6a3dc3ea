"""Command-line interface.

::

    python -m repro generate --out data/ --pairs 1000
    python -m repro train    --data data/ --scenario adamine --out run/
    python -m repro evaluate --data data/ --model run/ --setup 1k
    python -m repro search   --data data/ --model run/ \
                             --ingredients broccoli chicken
    python -m repro serve    --data data/ --model run/ \
                             --ingredients broccoli chicken --deadline 0.5 \
                             --shards 3 --replicas 2 --ingest-log wal/
    python -m repro ingest append --log-dir wal/ --data data/ \
                             --model run/ --recipe-id 7
    python -m repro ingest status --log-dir wal/
    python -m repro metrics dump --jsonl run/telemetry.jsonl

``generate`` writes a synthetic Recipe1M in the Recipe1M JSON layout;
``train`` fits the featurizer + a scenario and saves both; ``evaluate``
runs the paper's bag protocol on the test split; ``search`` answers
fridge queries with the trained engine; ``serve`` answers the same
query through the fault-contained resilient service (deadline,
circuit breakers, degraded fallback; ``--shards N --replicas R``
with N > 1 serves from a sharded, replicated index cluster built as
``ClusterConfig(num_shards=N, replication=R)``; ``--ingest-log DIR``
recovers and serves streamed deltas) and reports the structured
request outcome;
``ingest`` appends, tombstones, compacts, or inspects a streaming
write-ahead delta log without a running service; ``gateway`` serves
search/ingest over HTTP through the hardened front-end (per-tenant
API keys, ``X-Deadline-Ms`` propagation, slowloris armor, graceful
SIGTERM drain, swap-aware result cache); ``loadgen`` drives the
service with open-loop multi-tenant traffic (``--storm 10`` for a
10× spike, ``--flood tenant:8`` for one abusive tenant, ``--static``
to compare against a fixed cap, ``--url`` to hit a live gateway over
real sockets) and reports per-tenant goodput, shed reasons, and
brownout-ladder transitions.

Admission sheds past a fixed cap of ``--max-inflight`` requests;
``--adaptive`` (or any ``--tenants``) starts AIMD there and adds fair
queuing, token buckets and the brownout ladder.  ``loadgen`` is
adaptive unless ``--static``.

``train`` and ``serve`` accept ``--telemetry-jsonl PATH`` to stream
spans and events to a JSONL trace with a final metrics snapshot;
``metrics dump`` re-exposes that snapshot as Prometheus text or JSON;
``monitor`` tails such a trace and renders quality-observability
state: golden-probe MedR/R@K, drift scores, SLO burn rates, alerts,
and flight-recorder bundles (exit code 1 while any alert is firing).
"""

from __future__ import annotations

import argparse
import pathlib

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AdaMine cross-modal recipe retrieval")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic Recipe1M dataset")
    generate.add_argument("--out", required=True)
    generate.add_argument("--pairs", type=int, default=1000)
    generate.add_argument("--classes", type=int, default=16)
    generate.add_argument("--image-size", type=int, default=16)
    generate.add_argument("--seed", type=int, default=0)

    train = commands.add_parser("train", help="train a scenario")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--scenario", default="adamine")
    train.add_argument("--epochs", type=int, default=15)
    train.add_argument("--batch-size", type=int, default=50)
    train.add_argument("--learning-rate", type=float, default=2e-3)
    train.add_argument("--lambda-sem", type=float, default=0.1)
    train.add_argument("--latent-dim", type=int, default=32)
    train.add_argument("--backbone", default="hist",
                       choices=("hist", "mlp", "resnet"))
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint-dir", default=None,
                       help="write atomic checkpoints here every "
                            "--checkpoint-every epochs")
    train.add_argument("--checkpoint-every", type=int, default=1,
                       help="epochs between checkpoints (default 1)")
    train.add_argument("--resume", default=None, metavar="PATH",
                       help="resume from a checkpoint file or directory "
                            "(picks the latest loadable checkpoint)")
    train.add_argument("--quarantine", action="store_true",
                       help="skip + report corrupt corpus records instead "
                            "of aborting the import")
    train.add_argument("--telemetry-jsonl", default=None, metavar="PATH",
                       help="stream spans/events to this JSONL file and "
                            "append a final metrics snapshot")

    evaluate = commands.add_parser("evaluate",
                                   help="evaluate a trained scenario")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--setup", default="1k", choices=("1k", "10k"))
    evaluate.add_argument("--bag-size", type=int, default=None)
    evaluate.add_argument("--bags", type=int, default=None)

    search = commands.add_parser("search", help="fridge search")
    search.add_argument("--data", required=True)
    search.add_argument("--model", required=True)
    search.add_argument("--ingredients", nargs="+", required=True)
    search.add_argument("--top-k", type=int, default=5)

    serve = commands.add_parser(
        "serve", help="fridge search through the resilient service "
                      "(deadline, breakers, degraded fallback)")
    serve.add_argument("--data", required=True)
    serve.add_argument("--model", required=True)
    serve.add_argument("--ingredients", nargs="+", required=True)
    serve.add_argument("--top-k", type=int, default=5)
    serve.add_argument("--class-name", default=None,
                       help="restrict results to one semantic class")
    serve.add_argument("--deadline", type=float, default=1.0,
                       help="per-request time budget in seconds")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="admission cap, excess requests are shed "
                            "(the starting AIMD limit under --adaptive)")
    serve.add_argument("--adaptive", action="store_true",
                       help="adaptive admission: AIMD concurrency "
                            "limit, fair queuing, brownout ladder "
                            "(instead of the fixed --max-inflight cap)")
    serve.add_argument("--tenants", action="append", default=None,
                       metavar="NAME[:WEIGHT[:RATE[:BURST[:CRIT]]]]",
                       help="tenant admission policy (repeatable); "
                            "implies --adaptive. RATE/BURST are "
                            "tokens/s (empty RATE = unlimited); CRIT "
                            "is user|background")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="bounded fair-queue depth per tenant lane "
                            "under --adaptive")
    serve.add_argument("--shards", type=int, default=1,
                       help="serve the indexes from a sharded, "
                            "replicated cluster (1 = monolithic)")
    serve.add_argument("--replicas", type=int, default=2,
                       help="replicas per shard when --shards > 1")
    serve.add_argument("--no-degraded", action="store_true",
                       help="disable the model-free degraded fallback")
    serve.add_argument("--telemetry-jsonl", default=None, metavar="PATH",
                       help="stream spans/events to this JSONL file and "
                            "append a final metrics snapshot")
    serve.add_argument("--drift-reference", default=None, metavar="PATH",
                       help="training-time drift reference "
                            "(drift-reference.json) enabling online "
                            "embedding-drift scoring")
    serve.add_argument("--probe", type=int, default=0, metavar="N",
                       help="after serving the query, replay an "
                            "N-query golden probe through the service "
                            "and report online vs offline MedR/R@K")
    serve.add_argument("--ingest-log", default=None, metavar="DIR",
                       help="enable streaming ingest backed by this "
                            "write-ahead log directory (recovers any "
                            "previous deltas before serving)")
    serve.add_argument("--profile-hz", type=float, default=None,
                       metavar="HZ",
                       help="run the sampling profiler at HZ while "
                            "serving and report where the CPU went")

    gateway = commands.add_parser(
        "gateway", help="serve search/ingest over HTTP through the "
                        "hardened gateway (wire armor, graceful "
                        "drain, swap-aware result cache)")
    gateway.add_argument("--data", required=True)
    gateway.add_argument("--model", required=True)
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral)")
    gateway.add_argument("--api-key", action="append", default=None,
                         dest="api_keys", metavar="KEY:TENANT",
                         help="accept KEY as TENANT (repeatable); "
                              "with no keys the trusted X-Tenant "
                              "header names the tenant")
    gateway.add_argument("--deadline", type=float, default=1.0,
                         help="default per-request budget in seconds")
    gateway.add_argument("--max-deadline-ms", type=float, default=10000.0,
                         help="ceiling for the X-Deadline-Ms header")
    gateway.add_argument("--adaptive", action="store_true",
                         help="adaptive admission (AIMD, fair "
                              "queuing, brownout ladder) instead of "
                              "the fixed --max-inflight cap")
    gateway.add_argument("--tenants", action="append", default=None,
                         metavar="NAME[:WEIGHT[:RATE[:BURST[:CRIT]]]]",
                         help="tenant admission policy (repeatable); "
                              "implies --adaptive")
    gateway.add_argument("--max-inflight", type=int, default=8,
                         help="admission cap (AIMD start if adaptive)")
    gateway.add_argument("--max-queue", type=int, default=64)
    gateway.add_argument("--max-connections", type=int, default=64,
                         help="concurrent connection cap; excess is "
                              "shed at accept with a canned 503")
    gateway.add_argument("--cache-capacity", type=int, default=256)
    gateway.add_argument("--cache-ttl", type=float, default=30.0,
                         help="result-cache freshness window, seconds")
    gateway.add_argument("--stale-ttl", type=float, default=300.0,
                         help="how long past TTL an entry may still "
                              "be served stale under brownout")
    gateway.add_argument("--no-cache", action="store_true",
                         help="disable the result cache")
    gateway.add_argument("--drain-deadline", type=float, default=5.0,
                         help="seconds SIGTERM waits for inflight "
                              "requests before cutting stragglers")
    gateway.add_argument("--duration", type=float, default=None,
                         help="run for N seconds then drain (default: "
                              "run until SIGTERM/SIGINT)")
    gateway.add_argument("--ingest-log", default=None, metavar="DIR",
                         help="enable streaming ingest backed by this "
                              "write-ahead log directory")
    gateway.add_argument("--telemetry-jsonl", default=None,
                         metavar="PATH")
    gateway.add_argument("--profile-hz", type=float, default=None,
                         metavar="HZ",
                         help="run the sampling profiler at HZ for "
                              "the gateway's lifetime (stacks land "
                              "in /stats and flight bundles)")

    loadgen = commands.add_parser(
        "loadgen", help="open-loop multi-tenant load generation "
                        "against the resilient service (overload "
                        "experiments), in-process or --url over HTTP")
    loadgen.add_argument("--data", default=None,
                         help="dataset path (required unless --url)")
    loadgen.add_argument("--model", default=None,
                         help="model run dir (required unless --url)")
    loadgen.add_argument("--url", default=None, metavar="URL",
                         help="drive a live gateway at URL (e.g. "
                              "http://127.0.0.1:8080/search) instead "
                              "of an in-process service")
    loadgen.add_argument("--api-key", action="append", default=None,
                         dest="api_keys", metavar="TENANT:KEY",
                         help="API key to send for TENANT "
                              "(repeatable; --url mode only)")
    loadgen.add_argument("--deadline-ms", type=float, default=None,
                         help="X-Deadline-Ms to send (--url mode)")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="run length in seconds")
    loadgen.add_argument("--load", action="append", default=None,
                         metavar="NAME:RPS[:CRIT]", dest="loads",
                         help="offered load per tenant (repeatable); "
                              "CRIT is user|background. Default: "
                              "one 'default' tenant at 20 rps")
    loadgen.add_argument("--tenants", action="append", default=None,
                         metavar="NAME[:WEIGHT[:RATE[:BURST[:CRIT]]]]",
                         help="tenant admission policy (repeatable)")
    loadgen.add_argument("--storm", type=float, default=None,
                         metavar="FACTOR",
                         help="multiply all offered rates by FACTOR "
                              "inside the storm window")
    loadgen.add_argument("--storm-start", type=float, default=0.0)
    loadgen.add_argument("--storm-end", type=float, default=None,
                         help="storm window end (default: run end)")
    loadgen.add_argument("--flood", default=None,
                         metavar="TENANT:FACTOR",
                         help="multiply one tenant's offered rate")
    loadgen.add_argument("--static", action="store_true",
                         help="shed past a fixed --max-inflight cap "
                              "instead of adaptive admission")
    loadgen.add_argument("--max-inflight", type=int, default=8,
                         help="admission cap (AIMD start if adaptive)")
    loadgen.add_argument("--max-queue", type=int, default=64)
    loadgen.add_argument("--deadline", type=float, default=0.5,
                         help="per-request time budget in seconds")
    loadgen.add_argument("--top-k", type=int, default=5)
    loadgen.add_argument("--telemetry-jsonl", default=None,
                         metavar="PATH")

    ingest = commands.add_parser(
        "ingest", help="streaming ingest against a write-ahead log "
                       "directory (append/delete/compact/status)")
    ingest_commands = ingest.add_subparsers(dest="ingest_command",
                                            required=True)
    append = ingest_commands.add_parser(
        "append", help="durably add one recipe to the delta log")
    append.add_argument("--log-dir", required=True)
    append.add_argument("--data", required=True)
    append.add_argument("--model", required=True)
    append.add_argument("--recipe-id", type=int, required=True,
                        help="dataset row of the recipe to stream in")
    append.add_argument("--class-name", default=None,
                        help="semantic class override (defaults to the "
                             "recipe's own class)")
    delete = ingest_commands.add_parser(
        "delete", help="durably tombstone one item")
    delete.add_argument("--log-dir", required=True)
    delete.add_argument("--data", required=True)
    delete.add_argument("--model", required=True)
    delete.add_argument("--id", type=int, required=True,
                        help="item id to tombstone")
    compact = ingest_commands.add_parser(
        "compact", help="fold the delta log into a new base snapshot")
    compact.add_argument("--log-dir", required=True)
    compact.add_argument("--data", required=True)
    compact.add_argument("--model", required=True)
    status = ingest_commands.add_parser(
        "status", help="read-only summary of a delta log directory")
    status.add_argument("--log-dir", required=True)

    monitor = commands.add_parser(
        "monitor", help="render quality-observability state from a "
                        "telemetry JSONL trace")
    monitor.add_argument("--jsonl", required=True, metavar="PATH",
                         help="telemetry JSONL file to tail")
    monitor.add_argument("--follow", action="store_true",
                         help="keep re-rendering until interrupted")
    monitor.add_argument("--interval", type=float, default=2.0,
                         help="seconds between renders with --follow")

    trace = commands.add_parser(
        "trace", help="inspect spans from a telemetry or flight JSONL "
                      "file: span trees, critical paths")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)
    trace_list = trace_commands.add_parser(
        "list", help="one line per trace: root, duration, span count")
    trace_list.add_argument("--jsonl", required=True, metavar="PATH",
                            help="telemetry/flight JSONL file to read")
    trace_list.add_argument("--limit", type=int, default=20,
                            help="show the N slowest traces")
    trace_show = trace_commands.add_parser(
        "show", help="render one trace as an ASCII span tree")
    trace_show.add_argument("trace_id", type=int)
    trace_show.add_argument("--jsonl", required=True, metavar="PATH")
    trace_show.add_argument("--critical", action="store_true",
                            help="mark spans on the blocking critical "
                                 "path")
    trace_critpath = trace_commands.add_parser(
        "critpath", help="aggregate critical-path breakdown: where "
                         "does the time go?")
    trace_critpath.add_argument("--jsonl", required=True,
                                metavar="PATH")
    trace_critpath.add_argument("--quantile", type=float, default=None,
                                help="focus on traces at or above this "
                                     "duration quantile (e.g. 0.99)")

    profile = commands.add_parser(
        "profile", help="sampling profiler: record a serving "
                        "workload, or inspect a collapsed profile")
    profile_commands = profile.add_subparsers(dest="profile_command",
                                              required=True)
    record = profile_commands.add_parser(
        "record", help="profile a synthetic serving workload and "
                       "write collapsed stacks")
    record.add_argument("--data", required=True)
    record.add_argument("--model", required=True)
    record.add_argument("--duration", type=float, default=2.0,
                        help="seconds of workload to sample")
    record.add_argument("--hz", type=float, default=None,
                        help="sampling rate (default 61)")
    record.add_argument("--out", default=None, metavar="PATH",
                        help="write Brendan Gregg folded stacks here "
                             "(default: profile.txt)")
    record.add_argument("--top-k", type=int, default=5)
    record.add_argument("--shards", type=int, default=1)
    profile_top = profile_commands.add_parser(
        "top", help="hottest frames of a collapsed profile")
    profile_top.add_argument("--profile", required=True, metavar="PATH",
                             help="collapsed-stack file (profile.txt "
                                  "from record or a flight bundle)")
    profile_top.add_argument("--limit", type=int, default=15)
    flame = profile_commands.add_parser(
        "flame", help="render a collapsed profile as an ASCII flame "
                      "tree")
    flame.add_argument("--profile", required=True, metavar="PATH")
    flame.add_argument("--width", type=int, default=100)
    flame.add_argument("--min-share", type=float, default=0.01,
                       help="hide subtrees below this sample share")

    metrics = commands.add_parser(
        "metrics", help="inspect telemetry traces written with "
                        "--telemetry-jsonl")
    metrics_commands = metrics.add_subparsers(dest="metrics_command",
                                              required=True)
    dump = metrics_commands.add_parser(
        "dump", help="print the last metrics snapshot of a trace")
    dump.add_argument("--jsonl", required=True, metavar="PATH",
                      help="telemetry JSONL file to read")
    dump.add_argument("--format", default="prom",
                      choices=("prom", "json"),
                      help="Prometheus text (default) or raw JSON")
    return parser


def _load_dataset(path: str, quarantine: bool = False):
    from .data import import_recipe1m
    from .robustness import QuarantineReport

    if not quarantine:
        return import_recipe1m(path)
    report = QuarantineReport()
    dataset = import_recipe1m(path, quarantine=report)
    if report:
        print(report.summary())
    return dataset


def _load_run(model_dir: str, dataset):
    """Rebuild featurizer + model from a training output directory."""
    import json

    from .core import build_scenario
    from .data import RecipeFeaturizer

    model_dir = pathlib.Path(model_dir)
    with open(model_dir / "run.json") as handle:
        run = json.load(handle)
    featurizer = RecipeFeaturizer.load(model_dir)
    model, __ = build_scenario(
        run["scenario"], featurizer, run["num_classes"],
        run["image_size"], latent_dim=run["latent_dim"],
        backbone=run["backbone"], seed=run["seed"])
    model.load(model_dir / "model.npz")
    return featurizer, model


def _command_generate(args) -> int:
    from .data import DatasetConfig, export_recipe1m, generate_dataset

    dataset = generate_dataset(DatasetConfig(
        num_pairs=args.pairs, num_classes=args.classes,
        image_size=args.image_size, seed=args.seed))
    paths = export_recipe1m(dataset, args.out)
    print(dataset.summary())
    for name, path in paths.items():
        print(f"  wrote {name}: {path}")
    return 0


def _command_train(args) -> int:
    import json

    from .core import Trainer, TrainingConfig, build_scenario
    from .data import RecipeFeaturizer
    from .obs import Telemetry

    dataset = _load_dataset(args.data, quarantine=args.quarantine)
    featurizer = RecipeFeaturizer().fit(dataset)
    train = featurizer.encode_split(dataset, "train")
    val = featurizer.encode_split(dataset, "val")
    image_size = dataset.recipes[0].image.shape[-1]
    config = TrainingConfig(
        epochs=args.epochs, freeze_epochs=0, batch_size=args.batch_size,
        learning_rate=args.learning_rate, lambda_sem=args.lambda_sem,
        augment=False, eval_bag_size=min(200, len(val)), eval_num_bags=2,
        seed=args.seed, checkpoint_every=args.checkpoint_every)
    model, config = build_scenario(
        args.scenario, featurizer, len(dataset.taxonomy), image_size,
        base_config=config, latent_dim=args.latent_dim,
        backbone=args.backbone, seed=args.seed)
    telemetry = Telemetry(jsonl_path=args.telemetry_jsonl)
    trainer = Trainer(model, config,
                      class_to_group=dataset.taxonomy.class_to_group_ids(),
                      telemetry=telemetry)
    try:
        if args.resume:
            history = trainer.resume(args.resume, train, val,
                                     checkpoint_dir=args.checkpoint_dir)
        else:
            history = trainer.fit(train, val,
                                  checkpoint_dir=args.checkpoint_dir)
    finally:
        telemetry.close()
    for stats in history:
        print(f"epoch {stats.epoch:3d}  loss {stats.train_loss:.4f}  "
              f"val MedR {stats.val_medr:.1f}")
    if trainer.health.skipped or trainer.health.rollbacks:
        print(trainer.health.summary())
    if args.telemetry_jsonl:
        print(f"telemetry trace: {args.telemetry_jsonl}")

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    featurizer.save(out)
    model.save(out / "model.npz")
    if trainer.drift_reference is not None:
        trainer.drift_reference.save(out / "drift-reference.json")
        print(f"drift reference: {out / 'drift-reference.json'}")
    with open(out / "run.json", "w") as handle:
        json.dump({"scenario": args.scenario,
                   "num_classes": len(dataset.taxonomy),
                   "image_size": image_size,
                   "latent_dim": args.latent_dim,
                   "backbone": args.backbone,
                   "seed": args.seed,
                   "best_val_medr": trainer.best_val_medr}, handle)
    print(f"saved run to {out} (best val MedR "
          f"{trainer.best_val_medr:.1f})")
    return 0


def _command_evaluate(args) -> int:
    from .retrieval import RetrievalProtocol

    dataset = _load_dataset(args.data)
    featurizer, model = _load_run(args.model, dataset)
    test = featurizer.encode_split(dataset, "test")
    defaults = {"1k": (min(100, len(test)), 10),
                "10k": (min(250, len(test)), 5)}
    bag_size, bags = defaults[args.setup]
    protocol = RetrievalProtocol(
        bag_size=args.bag_size or bag_size,
        num_bags=args.bags or bags)
    image_emb, recipe_emb = model.encode_corpus(test)
    result = protocol.evaluate(image_emb, recipe_emb)
    print(result.summary())
    return 0


def _command_search(args) -> int:
    from .core import RecipeSearchEngine

    dataset = _load_dataset(args.data)
    featurizer, model = _load_run(args.model, dataset)
    test = featurizer.encode_split(dataset, "test")
    engine = RecipeSearchEngine(model, featurizer, dataset, test)
    results = engine.search_by_ingredients(args.ingredients, k=args.top_k)
    print(f"top {args.top_k} dishes for {', '.join(args.ingredients)}:")
    for result in results:
        marker = "+" if any(i in result.recipe.ingredients
                            for i in args.ingredients) else " "
        print(f"  [{marker}] {result.recipe.title:<30} "
              f"distance {result.distance:.3f}")
    return 0


def _parse_tenant_policy(spec: str):
    """``NAME[:WEIGHT[:RATE[:BURST[:CRIT]]]]`` → :class:`TenantPolicy`.

    Empty fields keep their defaults, so ``batch:::background`` is a
    weight-1, unlimited-rate background tenant."""
    from .serving import TenantPolicy

    parts = spec.split(":")
    if not parts[0]:
        raise SystemExit(f"--tenants spec needs a name: {spec!r}")
    kwargs = {"name": parts[0]}
    if len(parts) > 1 and parts[1]:
        kwargs["weight"] = float(parts[1])
    if len(parts) > 2 and parts[2]:
        kwargs["rate"] = float(parts[2])
    if len(parts) > 3 and parts[3]:
        kwargs["burst"] = float(parts[3])
    if len(parts) > 4 and parts[4]:
        kwargs["criticality"] = parts[4]
    return TenantPolicy(**kwargs)


def _cluster_config(shards: int, replicas: int = 2):
    """``--shards``/``--replicas`` → a cluster topology, or ``None``
    for the monolithic index."""
    from .serving import ClusterConfig

    if shards <= 1:
        return None
    return ClusterConfig(num_shards=shards, replication=replicas)


def _admission_config(args):
    """Build an :class:`AdmissionConfig` from serve/gateway/loadgen
    flags: adaptive when asked for, else the fixed-cap preset."""
    from .serving import AdmissionConfig

    tenants = tuple(_parse_tenant_policy(spec)
                    for spec in (args.tenants or ()))
    adaptive = bool(getattr(args, "adaptive", False) or tenants
                    or not getattr(args, "static", True))
    if not adaptive:
        return AdmissionConfig.static(args.max_inflight)
    return AdmissionConfig(tenants=tenants,
                           max_queue_depth=args.max_queue,
                           initial_limit=args.max_inflight)


def _command_serve(args) -> int:
    from .core import RecipeSearchEngine
    from .obs import DriftReference, GoldenProbe, GoldenSet, Telemetry
    from .serving import ResilientSearchService, ServiceConfig

    dataset = _load_dataset(args.data)
    featurizer, model = _load_run(args.model, dataset)
    test = featurizer.encode_split(dataset, "test")
    engine = RecipeSearchEngine(model, featurizer, dataset, test)
    telemetry = Telemetry(jsonl_path=args.telemetry_jsonl)
    reference = (DriftReference.load(args.drift_reference)
                 if args.drift_reference else None)
    service = ResilientSearchService(engine, ServiceConfig(
        deadline=args.deadline, admission=_admission_config(args),
        degraded_enabled=not args.no_degraded,
        cluster=_cluster_config(args.shards, args.replicas)),
        telemetry=telemetry, drift_reference=reference,
        ingest_log=args.ingest_log)
    if service.ingestor is not None:
        recovery = service.ingestor.recovery
        print(f"ingest log: {args.ingest_log}  "
              f"epoch {recovery['epoch']}  base {recovery['base']}  "
              f"replayed {recovery['replayed_records']} records  "
              f"truncated {recovery['truncated_bytes']} torn bytes")
    if args.profile_hz is not None:
        service.start_profiler(args.profile_hz)
    try:
        response = service.search_by_ingredients(
            args.ingredients, k=args.top_k, class_name=args.class_name)
        if args.probe > 0:
            golden = GoldenSet.from_engine(engine, size=args.probe)
            probe = GoldenProbe(service, golden,
                                registry=telemetry.registry,
                                events=telemetry.events)
            probe.attach()
            online = probe.run()
            offline = probe.baseline
            print(f"golden probe ({len(golden)} queries, "
                  f"depth {golden.depth}):")
            print(f"  online : {online.summary()}")
            if offline is not None:
                print(f"  offline: {offline.summary()}")
    finally:
        telemetry.close()
    outcome = response.outcome
    line = (f"status {outcome.status}  generation {response.generation}  "
            f"attempts {outcome.attempts}  "
            f"latency {outcome.latency * 1000:.1f}ms")
    if outcome.shards_total is not None:
        line += (f"  shards {outcome.shards_answered}"
                 f"/{outcome.shards_total}")
    if outcome.error:
        line += f"  [{outcome.error}]"
    print(line)
    cluster = service.stats().get("cluster")
    if cluster:
        for name, info in cluster.items():
            print(f"  cluster {name}: {info['shards']} shards x "
                  f"{info['replication']} replicas, "
                  f"{info['live_replicas']} live, "
                  f"{info['failovers']} failovers")
    if outcome.stage_ms:
        print("  stages: " + "  ".join(
            f"{stage} {ms:.1f}ms"
            for stage, ms in outcome.stage_ms.items()))
    for result in response.results:
        print(f"  {result.recipe.title:<30} distance {result.distance:.3f}")
    if args.profile_hz is not None:
        service.profiler.stop()
        _print_profile_summary(service)
    if args.telemetry_jsonl:
        print(f"telemetry trace: {args.telemetry_jsonl}")
    return 0 if response.ok else 1


def _print_profile_summary(service) -> None:
    snapshot = service.profiler.snapshot()
    overhead = snapshot["self_overhead"]
    print(f"profile: {snapshot['samples']} samples at "
          f"{snapshot['hz']:g}Hz  overhead "
          f"{overhead['fraction'] * 100:.2f}% "
          f"({overhead['per_sample_us']:.0f}us/sample)")
    for entry in snapshot["top"][:5]:
        print(f"  {entry['frame']:<44} {entry['samples']:>6}  "
              f"{entry['share'] * 100:5.1f}%")
    memory = service.memory.snapshot()
    parts = [f"{name} {nbytes / 1024:.0f}KiB" for name, nbytes
             in sorted(memory["components"].items(),
                       key=lambda kv: -kv[1])[:6]]
    rss = memory["rss_bytes"]
    rss_text = f"{rss / 1048576:.1f}MiB" if rss is not None else "n/a"
    print(f"memory: rss {rss_text}  tracked "
          f"{memory['tracked_bytes'] / 1048576:.1f}MiB  "
          + "  ".join(parts))


def _command_loadgen(args) -> int:
    import itertools
    import threading

    from .serving import LoadGenerator, TenantLoad

    service = telemetry = None
    if args.url is None:
        if not args.data or not args.model:
            raise SystemExit("loadgen needs --data and --model "
                             "(or --url for a live gateway)")
        from .core import RecipeSearchEngine
        from .obs import Telemetry
        from .serving import ResilientSearchService, ServiceConfig

        dataset = _load_dataset(args.data)
        featurizer, model = _load_run(args.model, dataset)
        test = featurizer.encode_split(dataset, "test")
        engine = RecipeSearchEngine(model, featurizer, dataset, test)
        telemetry = Telemetry(jsonl_path=args.telemetry_jsonl)
        service = ResilientSearchService(engine, ServiceConfig(
            deadline=args.deadline, admission=_admission_config(args)),
            telemetry=telemetry)

    loads = []
    for spec in (args.loads or ["default:20"]):
        parts = spec.split(":")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise SystemExit(f"--load spec must be NAME:RPS: {spec!r}")
        loads.append(TenantLoad(parts[0], float(parts[1]),
                                criticality=(parts[2] if len(parts) > 2
                                             and parts[2] else "user")))
    shapers = []
    if args.storm is not None:
        from .robustness.faults import OverloadStorm
        shapers.append(OverloadStorm(
            args.storm, start_s=args.storm_start,
            end_s=(args.duration if args.storm_end is None
                   else args.storm_end)))
    if args.flood is not None:
        from .robustness.faults import TenantFlood
        tenant, _, factor = args.flood.partition(":")
        if not factor:
            raise SystemExit("--flood spec must be TENANT:FACTOR")
        shapers.append(TenantFlood(tenant, float(factor)))

    if args.url is not None:
        from .serving import HttpRequester

        api_keys = {}
        for spec in (args.api_keys or ()):
            tenant, _, key = spec.partition(":")
            if not key:
                raise SystemExit("--api-key spec must be TENANT:KEY")
            api_keys[tenant] = key
        request_fn = HttpRequester(args.url, api_keys=api_keys,
                                   deadline_ms=args.deadline_ms,
                                   timeout_s=max(args.deadline * 4, 5.0))
        mode = f"http {args.url}"
    else:
        # Round-robin fridge queries drawn from the corpus itself.
        queries = [list(dataset[i].ingredients)[:4] or ["salt"]
                   for i in range(min(len(dataset), 64))]
        counter = itertools.count()
        counter_lock = threading.Lock()

        def request_fn(tenant, criticality):
            with counter_lock:
                ingredients = queries[next(counter) % len(queries)]
            return service.search_by_ingredients(
                ingredients, k=args.top_k, tenant=tenant,
                criticality=criticality)

        mode = ("static" if args.static else "adaptive") + " admission"
    print(f"loadgen: {mode}, {args.duration:.1f}s, "
          + ", ".join(f"{load.name}@{load.rate:g}rps" for load in loads))
    try:
        report = LoadGenerator(request_fn, loads,
                               duration_s=args.duration,
                               shapers=shapers).run()
    finally:
        if telemetry is not None:
            telemetry.close()
    print(report.render())
    if service is not None:
        snapshot = service.admission.snapshot()
        print("admission: " + "  ".join(
            f"{key}={value}" for key, value in snapshot.items()))
        brownout = service.admission.brownout
        if brownout.transitions:
            print("brownout transitions: " + " -> ".join(
                f"{direction}:{step}"
                for direction, step in brownout.transitions))
    return 0


def _command_gateway(args) -> int:
    from .core import RecipeSearchEngine
    from .obs import Telemetry
    from .serving import (CacheConfig, Gateway, GatewayConfig,
                          ResilientSearchService, ServiceConfig)

    api_keys = {}
    for spec in (args.api_keys or ()):
        key, _, tenant = spec.partition(":")
        if not tenant:
            raise SystemExit("--api-key spec must be KEY:TENANT")
        api_keys[key] = tenant

    dataset = _load_dataset(args.data)
    featurizer, model = _load_run(args.model, dataset)
    test = featurizer.encode_split(dataset, "test")
    engine = RecipeSearchEngine(model, featurizer, dataset, test)
    telemetry = Telemetry(jsonl_path=args.telemetry_jsonl)
    service = ResilientSearchService(engine, ServiceConfig(
        deadline=args.deadline, admission=_admission_config(args)),
        telemetry=telemetry, ingest_log=args.ingest_log)
    gateway = Gateway(service, GatewayConfig(
        host=args.host, port=args.port, api_keys=api_keys,
        max_connections=args.max_connections,
        max_deadline_ms=args.max_deadline_ms,
        drain_deadline_s=args.drain_deadline,
        cache=CacheConfig(capacity=args.cache_capacity,
                          ttl_s=args.cache_ttl,
                          stale_ttl_s=args.stale_ttl,
                          enabled=not args.no_cache)))
    if args.profile_hz is not None:
        service.start_profiler(args.profile_hz)
    gateway.start()
    gateway.install_signal_handlers()
    auth = (f"{len(api_keys)} API key(s)" if api_keys
            else "trusted X-Tenant")
    print(f"gateway: http://{args.host}:{gateway.port}  "
          f"auth: {auth}  cache: "
          f"{'off' if args.no_cache else f'{args.cache_ttl:g}s ttl'}")
    print("endpoints: POST /search  POST /ingest  POST /delete  "
          "GET /stats  GET /metrics  GET /healthz  GET /readyz")
    try:
        if args.duration is not None:
            gateway.wait_drained(timeout=args.duration)
            gateway.drain(reason="duration")
        else:
            gateway.wait_drained()
    except KeyboardInterrupt:
        gateway.drain(reason="keyboard_interrupt")
    print("gateway drained")
    if args.profile_hz is not None:
        service.profiler.stop()
        _print_profile_summary(service)
    return 0


def _open_ingestor(args):
    """Engine-backed ingestor over the test-split base (the same base
    ``serve`` uses), validated against the log's corpus fingerprint."""
    from .core import RecipeSearchEngine
    from .serving import Ingestor

    dataset = _load_dataset(args.data)
    featurizer, model = _load_run(args.model, dataset)
    test = featurizer.encode_split(dataset, "test")
    engine = RecipeSearchEngine(model, featurizer, dataset, test)
    ingestor = Ingestor(args.log_dir,
                        {"image": engine.image_index,
                         "recipe": engine.recipe_index})
    return dataset, engine, ingestor


def _print_ingest_status(status: dict) -> None:
    log = status["log"]
    print(f"epoch {status['epoch']}  base {status['base']}  "
          f"live items {status['live_items']}  "
          f"delta rows {status['delta_rows']}  "
          f"tombstones {status['tombstones']}")
    print(f"log: segment {log['segment']}  "
          f"lag {log['lag_records']} records  "
          f"appends {log['appends']}  syncs {log['syncs']}")


def _command_ingest(args) -> int:
    from .serving import IngestError, WalError, scan_log

    if args.ingest_command == "status":
        try:
            summary = scan_log(args.log_dir)
        except WalError as exc:
            print(f"ingest error: {exc}")
            return 1
        print(f"log {summary['directory']}: epoch {summary['epoch']}  "
              f"base {summary['base']}  segment {summary['segment']}  "
              f"{summary['records']} pending records "
              f"({summary['adds']} adds, {summary['deletes']} deletes)")
        return 0
    try:
        dataset, engine, ingestor = _open_ingestor(args)
    except IngestError as exc:
        print(f"ingest error: {exc}")
        return 1
    try:
        if args.ingest_command == "append":
            import numpy as np

            recipe = dataset[args.recipe_id]
            class_id = engine.resolve_class(args.class_name)
            if class_id is None:
                class_id = int(recipe.true_class_id)
            from .serving import recipe_to_payload

            with np.errstate(all="ignore"):
                vectors = {"recipe": engine.embed_recipe(recipe),
                           "image": engine.embed_image(recipe.image)}
            ack = ingestor.add(vectors, class_id=class_id,
                               payload=recipe_to_payload(recipe))
            verb = "replaced" if ack.replaced else "added"
            print(f"{verb} item {ack.item_id} "
                  f"({recipe.title!r}, class {class_id}) "
                  f"at {ack.position.segment}:{ack.position.offset}  "
                  f"durable={ack.durable}")
        elif args.ingest_command == "delete":
            try:
                ack = ingestor.delete(args.id)
            except KeyError as exc:
                print(f"ingest error: {exc.args[0]}")
                return 1
            print(f"tombstoned item {ack.item_id} "
                  f"at {ack.position.segment}:{ack.position.offset}  "
                  f"durable={ack.durable}")
        elif args.ingest_command == "compact":
            report = ingestor.compact()
            print(f"compacted to epoch {report.epoch}: "
                  f"{report.live_items} live items  "
                  f"{report.folded_tombstones} tombstones folded  "
                  f"{report.pending_replayed} raced writes replayed  "
                  f"base {report.base_file}")
        _print_ingest_status(ingestor.status())
        return 0
    finally:
        ingestor.close()


def _read_jsonl_tolerant(path) -> list[dict]:
    """Like ``read_jsonl`` but skips malformed lines — a live trace
    may be mid-write on its last line."""
    import json

    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def _gauge_values(registry, name) -> dict[tuple, float]:
    family = registry.get(name)
    if family is None:
        return {}
    return {key: child.value for key, child in family.children()}


def _render_monitor(path) -> tuple[str, bool]:
    """Render one monitor frame; returns ``(text, any_alert_firing)``."""
    from .obs import MetricsRegistry

    records = _read_jsonl_tolerant(path)
    lines = [f"monitor: {path} ({len(records)} records)"]
    firing: dict[str, bool] = {}

    # Event-sourced state: the trace streams events as they happen,
    # while the metrics snapshot only lands when the run closes.
    last = {}
    flights = []
    for record in records:
        if record.get("kind") != "event":
            continue
        event = record.get("event")
        if event in ("probe", "probe_baseline", "drift", "swap"):
            last[event] = record
        elif event == "alert":
            firing[record.get("slo", "?")] = \
                record.get("state") == "firing"
            last[event] = record
        elif event == "flight":
            flights.append(record)

    if "probe" in last:
        probe = last["probe"]
        line = (f"probe: online MedR {probe.get('medr', '?')}  "
                f"R@1 {probe.get('r_at_1', '?')}  "
                f"R@5 {probe.get('r_at_5', '?')}  "
                f"R@10 {probe.get('r_at_10', '?')}")
        if probe.get("baseline_medr") is not None:
            line += (f"  (baseline MedR {probe['baseline_medr']}, "
                     f"delta {probe.get('medr_delta')})")
        lines.append(line)
    if "drift" in last:
        drift = last["drift"]
        scores = ", ".join(
            f"{name} {drift[name]:.3f}" if isinstance(
                drift.get(name), (int, float)) else f"{name} n/a"
            for name in ("embedding_norm", "top1_distance", "margin"))
        lines.append(f"drift (PSI): {scores}")
    if "swap" in last:
        swap = last["swap"]
        lines.append(f"generation: {swap.get('generation')} "
                     f"({'ok' if swap.get('ok') else 'rolled back'})")

    snapshot = None
    for record in records:
        if record.get("kind") == "metrics":
            snapshot = record.get("metrics")
    if snapshot is not None:
        registry = MetricsRegistry.from_dict(snapshot)
        stage_family = registry.get("serving_stage_seconds")
        if stage_family is not None:
            for key, child in stage_family.children():
                if child.count == 0:
                    continue
                quantiles = child.quantiles((0.5, 0.95, 0.99))
                lines.append(
                    f"stage {key[0]}: n={child.count}  "
                    f"p50 {quantiles[0.5] * 1000:.1f}ms  "
                    f"p95 {quantiles[0.95] * 1000:.1f}ms  "
                    f"p99 {quantiles[0.99] * 1000:.1f}ms")
        for key, value in sorted(_gauge_values(
                registry, "slo_burn_rate").items()):
            lines.append(f"burn {key[0]}/{key[1]}: {value:.2f}x")
        for key, value in _gauge_values(
                registry, "slo_alert_firing").items():
            # The snapshot is authoritative over events when present.
            firing[key[0]] = value > 0

        # Overload-control plane: brownout rung and who was shed why.
        for __, level in _gauge_values(registry,
                                       "brownout_level").items():
            lines.append(f"brownout level: {level:g}")
        shed = _gauge_values(registry, "requests_shed_total")
        if shed:
            total = sum(shed.values())
            detail = "  ".join(
                f"{reason}/{tenant} {count:g}"
                for (reason, tenant), count in sorted(shed.items()))
            lines.append(f"shed: {total:g} total  {detail}")

        # Gateway front-door connection + cache traffic.
        conn = _gauge_values(registry, "gateway_active_connections")
        inflight = _gauge_values(registry, "gateway_inflight_requests")
        if conn or inflight:
            lines.append(
                f"gateway: {next(iter(conn.values()), 0):g} "
                f"connections  "
                f"{next(iter(inflight.values()), 0):g} inflight")
        cache = _gauge_values(registry, "gateway_cache_events_total")
        if cache:
            lines.append("cache: " + "  ".join(
                f"{key[0]} {value:g}"
                for key, value in sorted(cache.items())))

        # Memory ledger: rss, tracked total, biggest components.
        rss = next(iter(_gauge_values(
            registry, "memory_rss_bytes").values()), None)
        tracked = next(iter(_gauge_values(
            registry, "memory_tracked_bytes").values()), None)
        if rss is not None or tracked is not None:
            components = _gauge_values(registry,
                                       "memory_component_bytes")
            hot = "  ".join(
                f"{key[0]} {value / 1024:.0f}KiB"
                for key, value in sorted(components.items(),
                                         key=lambda kv: -kv[1])[:5])
            rss_text = (f"{rss / 1048576:.1f}MiB"
                        if rss is not None else "n/a")
            tracked_text = (f"{tracked / 1048576:.1f}MiB"
                            if tracked is not None else "n/a")
            lines.append(f"memory: rss {rss_text}  "
                         f"tracked {tracked_text}  {hot}")
        overhead = next(iter(_gauge_values(
            registry, "profiler_overhead_ratio").values()), None)
        if overhead is not None:
            lines.append(f"profiler overhead: "
                         f"{overhead * 100:.2f}%")

    for name, state in sorted(firing.items()):
        lines.append(f"alert {name}: "
                     f"{'FIRING' if state else 'resolved'}")
    for flight in flights:
        lines.append(f"flight bundle: {flight.get('bundle')} "
                     f"({flight.get('reason')})")
    if not firing:
        lines.append("alerts: none recorded")
    return "\n".join(lines), any(firing.values())


def _command_monitor(args) -> int:
    import time

    text, any_firing = _render_monitor(args.jsonl)
    print(text)
    while args.follow:
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            break
        text, any_firing = _render_monitor(args.jsonl)
        print("\n" + text)
    return 1 if any_firing else 0


def _trace_verdicts(path) -> dict[int, str]:
    """Sampler verdicts by trace id from ``{"kind": "trace"}`` rows."""
    verdicts: dict[int, str] = {}
    for record in _read_jsonl_tolerant(path):
        if record.get("kind") == "trace" and "trace_id" in record:
            verdicts[int(record["trace_id"])] = \
                record.get("verdict", "?")
    return verdicts


def _command_trace(args) -> int:
    from .obs import (aggregate, build_traces, render_tree,
                      spans_from_jsonl)

    records = spans_from_jsonl(args.jsonl)
    if not records:
        print(f"no spans in {args.jsonl}")
        return 1
    trees = build_traces(records)

    if args.trace_command == "show":
        tree = trees.get(args.trace_id)
        if tree is None:
            print(f"trace {args.trace_id} not found in {args.jsonl} "
                  f"({len(trees)} traces present)")
            return 1
        print(render_tree(tree, critical=args.critical))
        return 0

    if args.trace_command == "critpath":
        breakdown = aggregate(trees, focus_quantile=args.quantile)
        scope = ("all traces" if args.quantile is None
                 else f"traces at/above the p{args.quantile * 100:g} "
                      f"duration")
        print(f"critical path over {breakdown['traces']} roots "
              f"({scope}), {breakdown['total_s'] * 1000:.1f}ms "
              f"attributed:")
        for name, entry in breakdown["by_name"].items():
            print(f"  {name:<16} {entry['seconds'] * 1000:>9.2f}ms  "
                  f"{entry['share'] * 100:5.1f}%")
        return 0

    # list: slowest first, with root/span/orphan counts and sampler
    # verdicts when the file carries kept-trace rows.
    verdicts = _trace_verdicts(args.jsonl)
    rows = sorted(trees.values(),
                  key=lambda tree: (tree.root.duration
                                    if tree.root is not None else 0.0),
                  reverse=True)
    print(f"{len(rows)} traces in {args.jsonl}")
    print(f"{'trace':>8}  {'root':<12} {'ms':>9}  {'spans':>5}  "
          f"{'orphans':>7}  verdict")
    for tree in rows[:args.limit]:
        root = tree.root
        name = root.name if root is not None else "(no root)"
        duration = root.duration * 1000.0 if root is not None else 0.0
        print(f"{tree.trace_id:>8}  {name:<12} {duration:>9.2f}  "
              f"{len(tree.spans()):>5}  {len(tree.orphans):>7}  "
              f"{verdicts.get(tree.trace_id, '-')}")
    return 0


def _read_collapsed(path) -> list[str]:
    """Folded lines from a profile file, skipping ``#`` summary rows
    (flight-bundle ``profile.txt`` leads with a commented summary)."""
    lines = []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line and not line.lstrip().startswith("#"):
                lines.append(line)
    return lines


def _command_profile(args) -> int:
    from .obs import render_flame, top_frames

    if args.profile_command == "top":
        lines = _read_collapsed(args.profile)
        entries = top_frames(lines, args.limit)
        if not entries:
            print(f"no samples in {args.profile}")
            return 1
        print(f"{'samples':>8}  {'share':>6}  frame")
        for entry in entries:
            print(f"{entry['samples']:>8}  "
                  f"{entry['share'] * 100:5.1f}%  {entry['frame']}")
        return 0

    if args.profile_command == "flame":
        lines = _read_collapsed(args.profile)
        print(render_flame(lines, width=args.width,
                           min_share=args.min_share))
        return 0

    # record: profile a synthetic serving workload end to end.
    import itertools
    import time as _time

    from .core import RecipeSearchEngine
    from .serving import ResilientSearchService, ServiceConfig

    dataset = _load_dataset(args.data)
    featurizer, model = _load_run(args.model, dataset)
    test = featurizer.encode_split(dataset, "test")
    engine = RecipeSearchEngine(model, featurizer, dataset, test)
    service = ResilientSearchService(engine, ServiceConfig(
        cluster=_cluster_config(args.shards)))
    queries = [list(dataset[i].ingredients)[:4] or ["salt"]
               for i in range(min(len(dataset), 64))]
    profiler = service.start_profiler(args.hz)
    deadline = _time.monotonic() + args.duration
    requests = 0
    for index in itertools.count():
        if _time.monotonic() >= deadline:
            break
        service.search_by_ingredients(queries[index % len(queries)],
                                      k=args.top_k)
        requests += 1
    profiler.stop()
    out = pathlib.Path(args.out or "profile.txt")
    out.write_text("\n".join(profiler.collapsed()) + "\n")
    print(f"profiled {requests} requests over {args.duration:.1f}s  "
          f"-> {out}")
    _print_profile_summary(service)
    return 0


def _command_metrics(args) -> int:
    import json

    from .obs import MetricsRegistry, last_metrics_snapshot

    snapshot = last_metrics_snapshot(args.jsonl)
    if snapshot is None:
        print(f"no metrics snapshot in {args.jsonl} "
              f"(crashed run or not a telemetry trace)")
        return 1
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(MetricsRegistry.from_dict(snapshot).to_prometheus(),
              end="")
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "train": _command_train,
    "evaluate": _command_evaluate,
    "search": _command_search,
    "serve": _command_serve,
    "gateway": _command_gateway,
    "loadgen": _command_loadgen,
    "ingest": _command_ingest,
    "monitor": _command_monitor,
    "trace": _command_trace,
    "profile": _command_profile,
    "metrics": _command_metrics,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
