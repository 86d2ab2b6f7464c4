"""Command-line reproduction driver.

Regenerate any paper artifact from the shell::

    python -m repro list
    python -m repro fig8 --graphs Reddit ppa
    python -m repro table4
    python -m repro table5 --models sage --datasets Flickr
    python -m repro fig9 --models sage gcn

Each command prints the paper-shaped table produced by the corresponding
module in :mod:`repro.experiments`, imported by its runner alone, so
``train`` and ``serve`` load neither the artifacts nor the A100 cost model.

Training runs through the execution engine with a selectable data flow::

    python -m repro train --dataset Flickr --flow full
    python -m repro train --dataset Reddit --flow sampled --sampler node \
        --batches-per-epoch 2 --sample-size 300 --pool-size 8
    python -m repro train --dataset Reddit --flow sampled --sampler node \
        --batches-per-epoch 2 --prefetch 2   # pipeline sampling vs training
    python -m repro train --dataset ogbn-products --flow partitioned --n-parts 4
    python -m repro train --dataset Reddit --flow distributed --replicas 4
    python -m repro train --dataset Reddit --flow distributed --replicas 2 \
        --distributed-inner sampled --sampler node
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict

__all__ = ["main", "build_parser", "ARTIFACTS"]


def _run_fig1(args) -> str:
    from .experiments import fig1_breakdown

    return fig1_breakdown.report(fig1_breakdown.run(n_epochs=args.epochs or 30))


def _run_fig4(args) -> str:
    from .experiments import fig4_approximator

    return fig4_approximator.report(
        fig4_approximator.run(epochs=args.epochs or 400)
    )


def _run_fig8(args) -> str:
    from .experiments import fig8_kernels

    return fig8_kernels.report(fig8_kernels.run(graphs=args.graphs))


def _run_fig9(args) -> str:
    from .experiments import fig9_system

    return fig9_system.report(
        fig9_system.run(models=args.models, datasets=args.datasets)
    )


def _run_fig10(args) -> str:
    from .experiments import fig10_convergence

    return fig10_convergence.report(
        fig10_convergence.run(epochs=args.epochs)
    )


def _run_table1(args) -> str:
    from .experiments import table1_datasets

    return table1_datasets.report()


def _run_table3(args) -> str:
    from .experiments import table3_setup

    return table3_setup.report()


def _run_table2(args) -> str:
    from .experiments import table2_memory

    return table2_memory.report(table2_memory.run())


def _run_table4(args) -> str:
    from .experiments import table4_maxk_kernel

    return table4_maxk_kernel.report(table4_maxk_kernel.run())


def _run_table5(args) -> str:
    from .experiments import table5_accuracy

    return table5_accuracy.report(
        table5_accuracy.run(
            models=args.models, datasets=args.datasets, epochs=args.epochs
        )
    )


def _run_drift(args) -> str:
    from .experiments import drift

    return drift.report(
        dataset=(args.datasets[0] if args.datasets else "Flickr"),
        epochs=args.epochs,
    )


ARTIFACTS: Dict[str, Callable] = {
    "table1": _run_table1,
    "table3": _run_table3,
    "fig1": _run_fig1,
    "fig4": _run_fig4,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "table2": _run_table2,
    "table4": _run_table4,
    "table5": _run_table5,
    "drift": _run_drift,
}

def _run_train(args) -> str:
    """Train one dataset through the engine with the selected data flow."""
    from .graphs import TRAINING_CONFIGS, load_training_dataset
    from .models import GNNConfig, MaxKGNN
    from .training import Engine, make_flow

    cfg = TRAINING_CONFIGS[args.dataset]
    graph = load_training_dataset(args.dataset, seed=args.seed)
    out_features = graph.label_dim()
    if args.nonlinearity == "maxk":
        k = args.k if args.k is not None else max(1, cfg.hidden // 8)
    else:
        k = None
    config = GNNConfig(
        model_type=args.model, in_features=cfg.n_features, hidden=cfg.hidden,
        out_features=out_features, n_layers=cfg.layers,
        nonlinearity=args.nonlinearity, k=k, dropout=cfg.dropout,
    )
    sampled_kwargs = dict(
        sampler=args.sampler, batches_per_epoch=args.batches_per_epoch,
        sample_size=args.sample_size, walk_length=args.walk_length,
        n_hops=args.n_hops, fanout=args.fanout, pool_size=args.pool_size,
        seed=args.seed,
    )
    if args.flow == "sampled":
        flow = make_flow("sampled", prefetch=args.prefetch, **sampled_kwargs)
    elif args.flow == "partitioned":
        flow = make_flow(
            "partitioned", n_parts=args.n_parts,
            boundary_fraction=args.boundary_fraction, seed=args.seed,
            prefetch=args.prefetch,
        )
    elif args.flow == "distributed":
        # prefetch is forwarded so make_flow's explicit incompatibility
        # error surfaces instead of silently ignoring the user's flag.
        if args.distributed_inner == "sampled":
            flow = make_flow(
                "distributed", inner="sampled", replicas=args.replicas,
                processes=args.replica_procs, prefetch=args.prefetch,
                **sampled_kwargs,
            )
        else:
            flow = make_flow(
                "distributed", inner="partitioned", replicas=args.replicas,
                processes=args.replica_procs,
                n_parts=args.n_parts,
                boundary_fraction=args.boundary_fraction, seed=args.seed,
                prefetch=args.prefetch,
            )
    else:
        flow = make_flow("full", prefetch=args.prefetch)
    model = MaxKGNN(graph, config, seed=args.seed)
    engine = Engine(model, graph, flow, lr=cfg.lr)
    epochs = args.epochs if args.epochs is not None else cfg.epochs
    resume_from = None
    if args.resume is not None:
        if args.resume == "latest":
            from .training.checkpoint import latest_checkpoint

            if args.checkpoint_dir is None:
                raise SystemExit(
                    "--resume latest needs --checkpoint-dir to know where "
                    "to look"
                )
            resume_from = latest_checkpoint(args.checkpoint_dir)
            if resume_from is None:
                raise SystemExit(
                    f"--resume latest found no checkpoint-*.ckpt under "
                    f"{args.checkpoint_dir}"
                )
        else:
            resume_from = args.resume
    checkpoint_every = args.checkpoint_every
    if args.checkpoint_dir is not None and checkpoint_every is None:
        checkpoint_every = max(epochs // 4, 1)
    start = time.perf_counter()
    try:
        result = engine.fit(
            epochs, eval_every=max(epochs // 4, 1),
            checkpoint_every=checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            resume_from=resume_from,
        )
    finally:
        # Stops the prefetch thread and the replica process pool, and
        # unlinks any shared-memory segments.
        engine.close()
    elapsed = time.perf_counter() - start
    lines = [
        f"dataset      {args.dataset} ({graph.n_nodes} nodes, "
        f"{graph.n_edges} edges)",
        f"model        {args.model} {args.nonlinearity}"
        + (f" k={k}" if k else ""),
        f"flow         {result.flow}",
        f"epochs       {epochs} ({len(result.batch_losses)} batch steps)",
        f"wall-clock   {elapsed:.2f}s ({1e3 * elapsed / epochs:.1f} ms/epoch)",
        # A resume at (or past) the target epoch runs zero epochs and
        # produces no losses.
        "final loss   " + (f"{result.train_losses[-1]:.4f}"
                           if result.train_losses
                           else "n/a (resumed at target epoch)"),
        f"{result.metric_name:12s} "
        + (f"val {result.best_val:.3f}  test {result.test_at_best_val:.3f}"
           if result.train_losses else "n/a (no epochs ran)"),
    ]
    measured_of = getattr(flow, "measured", None)
    if measured_of is not None:
        # DistributedFlow: what its replicas measured during this run.
        measured = measured_of()

        def per_replica(key, spec=""):
            return "/".join(format(value, spec) for value in measured[key])

        lines.append(
            f"replicas     {flow.replicas} ({measured['rounds']} rounds; per "
            f"replica {per_replica('replica_steps')} steps, "
            f"{per_replica('replica_ms', '.1f')} ms, "
            f"{per_replica('replica_edges')} edges)"
        )
        lines.append(
            f"balance      straggler skew {measured['straggler_skew']:.2f}, "
            f"load efficiency {measured['load_efficiency']:.2f}, "
            f"gini {measured['load_gini']:.3f}"
        )
    return "\n".join(lines)


def _run_serve(args) -> str:
    """Stand up an inference service over a trained model and drive it.

    Without a network stack to speak of, "serving" here is the real
    service object under a local load generator: submit ``--requests``
    seeded random node queries, pump the batcher, and report the
    throughput / latency / shed profile the benchmarks gate.
    """
    import numpy as np

    from .graphs import TRAINING_CONFIGS, load_training_dataset
    from .models import GNNConfig, MaxKGNN
    from .serving import InferenceService, ServiceConfig

    cfg = TRAINING_CONFIGS[args.dataset]
    graph = load_training_dataset(args.dataset, seed=args.seed)
    if args.nonlinearity == "maxk":
        k = args.k if args.k is not None else max(1, cfg.hidden // 8)
    else:
        k = None
    config = GNNConfig(
        model_type=args.model, in_features=cfg.n_features, hidden=cfg.hidden,
        out_features=graph.label_dim(), n_layers=cfg.layers,
        nonlinearity=args.nonlinearity, k=k, dropout=cfg.dropout,
    )
    model = MaxKGNN(graph, config, seed=args.seed)
    service = InferenceService(graph, model, ServiceConfig(
        queue_capacity=args.queue_capacity, max_batch=args.max_batch,
        default_deadline=args.deadline_ms / 1000.0,
        n_hops=args.n_hops, fanout=args.fanout, cache_size=args.cache_size,
    ))
    try:
        if args.checkpoint is not None:
            service.load_checkpoint(args.checkpoint)
        rng = np.random.default_rng(args.seed)
        nodes = rng.integers(0, graph.n_nodes, size=args.requests)
        start = time.perf_counter()
        tickets = []
        for node in nodes:
            tickets.append(service.submit(int(node)))
            service.pump()
        service.drain()
        elapsed = time.perf_counter() - start
        served = [t.result.latency for t in tickets if t.result.ok]
        stats = service.stats()
        lines = [
            f"dataset      {args.dataset} ({graph.n_nodes} nodes, "
            f"{graph.n_edges} edges)",
            f"model        {args.model} {args.nonlinearity}"
            + (f" k={k}" if k else "")
            + ("" if args.checkpoint is None
               else f", weights from {args.checkpoint}"),
            f"requests     {args.requests} submitted, "
            f"{stats['served']} served + {stats['served_from_cache']} "
            f"cached, {stats['shed_total']} shed "
            f"({stats['shed_overload']} overload, "
            f"{stats['shed_deadline'] + stats['shed_late']} deadline), "
            f"{stats['failed']} failed",
            f"throughput   {args.requests / elapsed:.1f} req/s "
            f"({elapsed:.2f}s wall, mean batch "
            f"{stats.get('mean_batch', 1):.1f})",
        ]
        if served:
            lines.append(
                f"latency      p50 {1e3 * float(np.percentile(served, 50)):.1f} ms, "
                f"p99 {1e3 * float(np.percentile(served, 99)):.1f} ms "
                f"(deadline {args.deadline_ms:.0f} ms)"
            )
        return "\n".join(lines)
    finally:
        service.close()


_DESCRIPTIONS = {
    "table1": "benchmark graph inventory (published + scaled sizes)",
    "table3": "per-dataset training setup (paper/scaled)",
    "fig1": "GraphSAGE training-time breakdown (ogbn-proteins)",
    "fig4": "y = x^2 approximation, MaxK vs ReLU MLPs",
    "fig8": "SpGEMM/SSpMM kernel speedups over SpMM baselines",
    "fig9": "system training speedup sweep with Amdahl limits",
    "fig10": "convergence curves on ogbn-products",
    "table2": "memory-system profiling (cache simulator)",
    "table4": "MaxK selection kernel latency",
    "table5": "accuracy & speedup at the selected k values",
    "drift": "streaming accuracy under live graph mutation (update/query trace)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate MaxK-GNN paper tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="artifact", required=True)
    subparsers.add_parser("list", help="list available artifacts")

    train = subparsers.add_parser(
        "train", help="train a model through the execution engine"
    )
    train.add_argument("--dataset", default="Flickr",
                       help="training dataset (see table1)")
    train.add_argument("--model", default="sage",
                       choices=["sage", "gcn", "gin"])
    train.add_argument("--nonlinearity", default="maxk",
                       choices=["relu", "maxk"])
    train.add_argument("--k", type=int, default=None,
                       help="MaxK k (default: hidden // 8)")
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--flow", default="full",
                       choices=["full", "sampled", "partitioned",
                                "distributed"],
                       help="data-flow strategy for the engine")
    train.add_argument("--sampler", default="node",
                       choices=["node", "edge", "walk", "khop"],
                       help="subgraph sampler for --flow sampled")
    train.add_argument("--batches-per-epoch", type=int, default=1)
    train.add_argument("--sample-size", type=int, default=None,
                       help="nodes (or edges) per sampled batch")
    train.add_argument("--walk-length", type=int, default=8)
    train.add_argument("--n-hops", type=int, default=2)
    train.add_argument("--fanout", type=int, default=8)
    train.add_argument("--pool-size", type=int, default=None,
                       help="recycle sampled subgraphs through a pool")
    train.add_argument("--prefetch", type=int, default=0,
                       help="build batches ahead of the trainer (sampling, "
                            "induction, CSR build, backend registration); "
                            "N > 0 enables it: the background thread keeps "
                            "up to N batches built or building, rolling "
                            "into the next epoch as the window drains; a "
                            "failed build is raised when its own batch is "
                            "reached; trajectories are bit-identical to "
                            "--prefetch 0; ignored by --flow full, whose "
                            "only batch is the graph")
    train.add_argument("--n-parts", type=int, default=4,
                       help="partitions for --flow partitioned")
    train.add_argument("--boundary-fraction", type=float, default=0.2)
    train.add_argument("--replicas", type=int, default=2,
                       help="data-parallel replicas for "
                            "--flow distributed (R=1 replays the inner "
                            "flow bit for bit)")
    train.add_argument("--replica-procs", action="store_true",
                       help="run each distributed replica in its own OS "
                            "process against a shared-memory graph store "
                            "(R=1 bit-identical to in-process; R>1 "
                            "seed-reproducible; falls back in-process "
                            "when the machine can't host the pool)")
    train.add_argument("--distributed-inner", default="partitioned",
                       choices=["partitioned", "sampled"],
                       help="which flow --flow distributed shards "
                            "across the replicas")
    train.add_argument("--checkpoint-dir", default=None,
                       help="write full-state checkpoints (params, Adam "
                            "moments, RNG streams, epoch cursor) under "
                            "this directory; resume is bit-for-bit")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       help="epochs between checkpoints (default: "
                            "epochs/4 when --checkpoint-dir is set)")
    train.add_argument("--resume", nargs="?", const="latest", default=None,
                       help="resume from a checkpoint file, or (with no "
                            "value) the newest checkpoint in "
                            "--checkpoint-dir")

    serve = subparsers.add_parser(
        "serve", help="run the online inference service in-process under "
                      "a local load generator and report latency/shed stats"
    )
    serve.add_argument("--dataset", default="Flickr",
                       help="graph to serve (see table1)")
    serve.add_argument("--model", default="sage",
                       choices=["sage", "gcn", "gin"])
    serve.add_argument("--nonlinearity", default="maxk",
                       choices=["relu", "maxk"])
    serve.add_argument("--k", type=int, default=None,
                       help="MaxK k (default: hidden // 8)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--checkpoint", default=None,
                       help="serve weights from this checkpoint file "
                            "(hot-swappable; must match the architecture)")
    serve.add_argument("--requests", type=int, default=64,
                       help="load-generator request count")
    serve.add_argument("--deadline-ms", type=float, default=1000.0,
                       help="per-request deadline; late results are shed, "
                            "never served")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="admission queue bound; overflow sheds with "
                            "an explicit 'overloaded' result")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="micro-batch window size bound")
    serve.add_argument("--n-hops", type=int, default=1)
    serve.add_argument("--fanout", type=int, default=8)
    serve.add_argument("--cache-size", type=int, default=256,
                       help="LRU result-cache entries (0 disables)")

    for name in ARTIFACTS:
        sub = subparsers.add_parser(name, help=_DESCRIPTIONS[name])
        sub.add_argument("--graphs", nargs="+", default=None,
                         help="restrict to these Table-1 graphs")
        sub.add_argument("--models", nargs="+", default=None,
                         choices=["sage", "gcn", "gin"],
                         help="restrict to these model families")
        sub.add_argument("--datasets", nargs="+", default=None,
                         help="restrict to these training datasets")
        sub.add_argument("--epochs", type=int, default=None,
                         help="override training epochs (smaller = faster)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.artifact == "list":
        for name, description in _DESCRIPTIONS.items():
            print(f"{name:8s} {description}")
        print("train    train a model via the engine (--flow full/sampled/partitioned)")
        print("serve    online inference service under a local load generator")
        return 0
    if args.artifact == "train":
        print(_run_train(args))
        return 0
    if args.artifact == "serve":
        print(_run_serve(args))
        return 0
    print(ARTIFACTS[args.artifact](args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
