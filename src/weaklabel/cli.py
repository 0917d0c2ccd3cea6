"""Command-line entry point.

Subcommands mirror the pipeline stages (``pipeline.STAGES``), plus
``run-all`` for the whole pipeline and ``synth`` for generating a
planted-label test corpus. Configuration comes from an optional JSON
file (``--config``) with flag overrides on top; exit status is nonzero
on failure, with the failing stage named.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields

from . import pipeline
from .config import ConfigError, make_config
from .synth import SyntheticSpec, write_synthetic

log = logging.getLogger(__name__)

def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--corpus", dest="corpus_path", help="corpus JSONL")
    parser.add_argument("--labels", dest="labels_path", help="label JSONL")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--embeddings", dest="embeddings_path",
                        help="external embedding file (TSV or JSONL)")
    parser.add_argument("--seed", type=int, dest="seed")
    parser.add_argument("--threads", type=int, dest="threads",
                        help="accepted and ignored: stages run serially, so it has no effect")
    parser.add_argument("--meta-path", dest="meta_path", help="e.g. 'P->P' or 'P->P<-P'")
    parser.add_argument("--tuple-count", type=int, dest="tuple_count")
    parser.add_argument("--train-steps", type=int, dest="train_steps")
    parser.add_argument("--train-epochs", type=int, dest="train_epochs")
    parser.add_argument("--hash-dim", type=int, dest="hash_dim")
    parser.add_argument("--embed-dim", type=int, dest="embed_dim")
    parser.add_argument("--learning-rate", type=float, dest="learning_rate")
    parser.add_argument("--pseudo-top-n", type=int, dest="pseudo_top_n")
    parser.add_argument("--trees", type=int, dest="n_trees")
    parser.add_argument("--max-leaf", type=int, dest="max_leaf")
    parser.add_argument("--beam-width", type=int, dest="beam_width")
    parser.add_argument("--min-df", type=int, dest="min_df")
    parser.add_argument("--min-paragraph-words", type=int, dest="min_paragraph_words")
    parser.add_argument("--top-k", type=int, dest="top_k")
    parser.add_argument("--full-text-match", action="store_const", const=True,
                        dest="match_full_text",
                        help="match label names over full text, not title+abstract")
    parser.add_argument("--no-hierarchy", action="store_const", const=False,
                        dest="use_hierarchy",
                        help="ablation: score title+abstract only")
    parser.add_argument("--no-selftrain", action="store_const", const=False,
                        dest="use_selftrain",
                        help="ablation: stop at the rank-ensemble prediction")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weaklabel",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, _ in pipeline.STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage")
        _add_config_flags(p)
    p = sub.add_parser("run-all", help="run every stage in order")
    _add_config_flags(p)

    # a flag left out leaves its SyntheticSpec field at the field's default
    p = sub.add_parser("synth", help="generate a planted-label corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--papers", type=int, dest="n_papers")
    p.add_argument("--label-count", type=int, dest="n_labels")
    p.add_argument("--labels-per-paper", type=int)
    p.add_argument("--fulltext-fraction", type=float, dest="fulltext_only_fraction")
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--edge-prob", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", default=".")
    return parser


def _run_synth(args) -> int:
    names = {f.name for f in fields(SyntheticSpec)}
    spec = SyntheticSpec(**{k: v for k, v in vars(args).items() if k in names})
    try:
        spec.validate()
    except ValueError as exc:
        print(f"synth error: {exc}", file=sys.stderr)
        return 2
    paths = [os.path.join(args.out_dir, name)
             for name in ("corpus.jsonl", "labels.jsonl", "synth_manifest.jsonl")]
    write_synthetic(spec, *paths)
    print(f"wrote {', '.join(paths)}")
    return 0


# parser destinations that are not PipelineConfig fields
_NON_CONFIG_DESTS = ("command", "config", "verbose")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "synth":
        return _run_synth(args)

    try:
        cfg = make_config(args.config, {k: v for k, v in vars(args).items()
                                        if k not in _NON_CONFIG_DESTS})
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run-all":
        stages = pipeline.stages(cfg)
    else:
        stages = [(args.command, dict(pipeline.STAGES)[args.command])]

    ctx = pipeline.RunContext(cfg)  # shared by every stage of this command
    for name, fn in stages:
        try:
            fn(cfg, ctx)
        except Exception as exc:
            print(f"stage {name} failed: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
