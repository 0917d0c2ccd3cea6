"""Synthetic planted-label corpora for end-to-end verification.

Every generated document carries a known set of relevant labels whose
names are injected verbatim into known regions: a configurable fraction
appears only in body paragraphs (never in the title or abstract), the
rest in the title/abstract. Documents sharing a label also share that
label's topic words and are linked by citation edges with a configured
probability, so retrieval, contrastive training and self-training all
have exactly checkable behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import write_jsonl

TOPIC_WORDS_PER_LABEL = 6
SYNONYM_EVERY = 5  # every k-th label gets a second name
TITLE_INJECT_PROB = 0.25


@dataclass
class SyntheticSpec:
    n_papers: int = 500
    n_labels: int = 50
    labels_per_paper: int = 3
    fulltext_only_fraction: float = 1.0 / 3.0
    vocab_size: int = 300  # filler word pool
    seed: int = 1
    edge_prob: float = 0.08  # citation probability between same-label papers

    def validate(self):
        if self.labels_per_paper > self.n_labels:
            raise ValueError("labels_per_paper exceeds the label count")
        if not (0.0 <= self.fulltext_only_fraction <= 1.0):
            raise ValueError("fulltext_only_fraction must lie in [0, 1]")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise ValueError("edge_prob must lie in [0, 1]")
        if min(self.n_papers, self.n_labels, self.labels_per_paper,
               self.vocab_size) < 1:
            raise ValueError("counts must be positive")


def _words(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:04d}" for i in range(n)]


def _insert(words: list[str], injections: list[tuple[int, list[str]]]) -> list[str]:
    """``words`` with each ``(position, phrase)`` of ``injections`` put before the
    base word at that position, from the last (position, draw order) pair to the
    first, so phrases at one position keep their draw order."""
    out = list(words)
    for pos, phrase in sorted(injections, key=lambda inj: inj[0])[::-1]:
        out[pos:pos] = phrase
    return out


def generate_synthetic(spec: SyntheticSpec):
    """Build corpus, label and manifest records (deterministic per seed).

    Returns ``(paper_records, label_records, manifest_records)`` where the
    manifest lists, per paper, which relevant labels were injected into
    the title/abstract and which only into body paragraphs.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)

    filler = _words("lorem", spec.vocab_size)
    name_pool = iter(_words("term", 3 * spec.n_labels))
    topic_pool = iter(_words("topic", spec.n_labels * TOPIC_WORDS_PER_LABEL))
    label_topics = [[next(topic_pool) for _ in range(TOPIC_WORDS_PER_LABEL)]
                    for _ in range(spec.n_labels)]

    labels = []
    for j in range(spec.n_labels):
        names = [f"{next(name_pool)} {next(name_pool)}"]
        if j % SYNONYM_EVERY == 0:
            names.append(next(name_pool))
        desc_words = label_topics[j][:4] + [filler[rng.integers(len(filler))] for _ in range(4)]
        labels.append({"id": f"L{j:04d}", "names": names, "description": " ".join(desc_words)})

    def sentence(topics: list[str], n: int) -> list[str]:
        return [topics[rng.integers(len(topics))] if rng.random() < 0.4
                else filler[rng.integers(len(filler))] for _ in range(n)]

    def name_of(l: int) -> list[str]:
        names = labels[l]["names"]
        return names[int(rng.integers(len(names)))].split()

    n_fulltext = int(round(spec.labels_per_paper * spec.fulltext_only_fraction))
    papers = []
    manifest = []
    paper_label_idx: list[list[int]] = []
    for i in range(spec.n_papers):
        mine = sorted(int(x) for x in rng.choice(spec.n_labels, size=spec.labels_per_paper,
                                                 replace=False))
        paper_label_idx.append(mine)
        ft_pick = rng.choice(len(mine), size=n_fulltext, replace=False) if n_fulltext else []
        fulltext_labels = [mine[k] for k in sorted(ft_pick)]
        abstract_labels = [l for l in mine if l not in fulltext_labels]
        topics = [t for l in mine for t in label_topics[l]]

        front = {"title": sentence(topics, int(rng.integers(4, 8))),
                 "abstract": sentence(topics, int(rng.integers(25, 35)))}
        front_inj: dict[str, list] = {part: [] for part in front}
        for l in abstract_labels:
            name = name_of(l)
            part = "title" if rng.random() < TITLE_INJECT_PROB else "abstract"
            front_inj[part].append((int(rng.integers(len(front[part]) + 1)), name))

        sections = []
        for _ in range(2):
            paragraphs = [sentence(topics, int(rng.integers(14, 24)))
                          for _ in range(int(rng.integers(2, 4)))]
            sections.append((sentence(topics, 2), paragraphs))
        # plant full-text-only names into body paragraphs, twice each
        flat = [p for _, paragraphs in sections for p in paragraphs]
        body_inj: list[list[tuple[int, list[str]]]] = [[] for _ in flat]
        for l in fulltext_labels:
            name = name_of(l)
            for _ in range(2):
                k = int(rng.integers(len(flat)))
                body_inj[k].append((int(rng.integers(len(flat[k]) + 1)), name))
        for para, inj in zip(flat, body_inj):
            para[:] = _insert(para, inj)

        papers.append({
            "id": f"P{i:05d}",
            **{part: " ".join(_insert(words, front_inj[part])) for part, words in front.items()},
            "sections": [{"name": " ".join(name), "paragraphs": [" ".join(p) for p in paragraphs]}
                         for name, paragraphs in sections],
            "bib_refs": [],
            "labels": [f"L{j:04d}" for j in mine],
        })
        manifest.append({
            "paper_id": f"P{i:05d}",
            "abstract_labels": [f"L{j:04d}" for j in abstract_labels],
            "fulltext_labels": [f"L{j:04d}" for j in fulltext_labels],
        })

    # citation edges between documents sharing at least one label
    by_label: dict[int, list[int]] = {}
    for i, mine in enumerate(paper_label_idx):
        for l in mine:
            by_label.setdefault(l, []).append(i)
    for i, mine in enumerate(paper_label_idx):
        related = sorted({j for l in mine for j in by_label[l] if j != i})
        if not related:
            continue
        mask = rng.random(len(related)) < spec.edge_prob
        papers[i]["bib_refs"] = [f"P{j:05d}" for j, m in zip(related, mask) if m]

    return papers, labels, manifest


def write_synthetic(spec: SyntheticSpec, corpus_path, labels_path, manifest_path=None):
    papers, labels, manifest = generate_synthetic(spec)
    write_jsonl(papers, corpus_path)
    write_jsonl(labels, labels_path)
    if manifest_path is not None:
        write_jsonl(manifest, manifest_path)
    return papers, labels, manifest
