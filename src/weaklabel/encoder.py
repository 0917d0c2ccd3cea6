"""Trainable text scorer: hashed features, projection, pair scoring head.

Texts are mapped to sparse signed-hash vectors over word unigrams and
bigrams, projected to a low-dimensional embedding, and scored either
independently (``bi_embed`` + cosine) or jointly through a pair feature
map ``psi(u, v) = [u * v ; |u - v|]`` and a linear head ``w``.

The head and projection are trained with a pairwise contrastive
objective: given an anchor paragraph, a paragraph from a related
document and one from an unrelated document,

    loss = -log( exp(s_pos) / (exp(s_pos) + exp(s_neg)) )

with ``s_* = w . psi(embed(anchor), embed(other))``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from hashlib import blake2b

import numpy as np

from . import kernels
from .corpus import tokenize, write_npz

DEFAULT_HASH_DIM = 2048
DEFAULT_EMBED_DIM = 256
DEFAULT_MAX_TOKENS = 256

CHECKPOINT_VERSION = 1


@dataclass
class SparseVec:
    """Sparse real vector: sorted unique indices with nonzero values."""

    indices: np.ndarray  # int64
    values: np.ndarray  # float64
    dim: int

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


class BaseFeaturizer:
    """Deterministic tf-weighted signed-hash features over 1/2-grams.

    The hash is keyed by ``hash_seed`` so feature spaces are reproducible
    across processes. Output vectors are L2-normalized; empty text maps
    to the zero vector.

    Each gram hashes to a code ``2 * bucket + sign bit`` (bit set: +1).
    Word codes are kept per instance, since a vocabulary is small and
    each word recurs in many texts; bigrams are hashed on every
    occurrence, because there are many more distinct bigrams than words
    and a table of them all would grow with the corpus.
    """

    def __init__(self, dim: int = DEFAULT_HASH_DIM, hash_seed: int = 0,
                 max_tokens: int = DEFAULT_MAX_TOKENS):
        self.dim = dim
        self.hash_seed = hash_seed
        self.max_tokens = max_tokens
        self._keyed = blake2b(digest_size=8,
                              key=int(hash_seed).to_bytes(8, "little", signed=True))
        self._word_codes: dict[str, int] = {}

    def _code(self, gram: str) -> int:
        hasher = self._keyed.copy()
        hasher.update(gram.encode("utf-8"))
        h = int.from_bytes(hasher.digest(), "little")
        return 2 * (h % self.dim) + (h >> 63)

    def featurize(self, text: str) -> SparseVec:
        tokens = tokenize(text)[: self.max_tokens]
        if not tokens:
            return SparseVec(np.empty(0, dtype=np.int64), np.empty(0), self.dim)
        words = self._word_codes
        codes = []
        for w in tokens:
            c = words.get(w)
            if c is None:
                c = words[w] = self._code(w)
            codes.append(c)
        codes += [self._code(f"{a}\x1f{b}") for a, b in zip(tokens, tokens[1:])]
        codes = np.array(codes, dtype=np.int64)
        # sums of +-1.0 are exact, so the order of accumulation is immaterial
        sums = np.bincount(codes >> 1, weights=2.0 * (codes & 1) - 1.0, minlength=self.dim)
        idx = np.flatnonzero(sums)
        val = sums[idx]
        norm = math.sqrt(float(val @ val))
        if norm > 0.0:
            val /= norm
        return SparseVec(idx, val, self.dim)


@dataclass
class CallCounters:
    """Inference-call accounting for complexity checks."""

    bi_embed: int = 0
    cross_score: int = 0

    def reset(self):
        self.bi_embed = self.cross_score = 0


@dataclass
class ScorerModel:
    featurizer: BaseFeaturizer
    proj: np.ndarray  # (hash_dim, embed_dim)
    w: np.ndarray  # (2 * embed_dim,)
    counters: CallCounters = field(default_factory=CallCounters)

    @property
    def hash_dim(self) -> int:
        return self.proj.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.proj.shape[1]


def init_model(hash_dim: int = DEFAULT_HASH_DIM, embed_dim: int = DEFAULT_EMBED_DIM,
               seed: int = 0, hash_seed: int | None = None) -> ScorerModel:
    """Seeded init: uniform projection scaled by 1/sqrt(hash_dim), zero head.

    A zero head makes every initial score 0, so the first training batch
    has mean loss exactly ln 2.
    """
    rng = np.random.default_rng(seed)
    proj = rng.uniform(-1.0, 1.0, size=(hash_dim, embed_dim)) / math.sqrt(hash_dim)
    w = np.zeros(2 * embed_dim, dtype=np.float64)
    feat = BaseFeaturizer(dim=hash_dim, hash_seed=seed if hash_seed is None else hash_seed)
    return ScorerModel(featurizer=feat, proj=proj, w=w)


def _embed_features(model: ScorerModel, sv: SparseVec) -> np.ndarray:
    r = kernels.project_rows(model.proj, sv.indices, sv.values)
    norm = math.sqrt(float(r @ r))
    if norm == 0.0:
        return np.zeros(model.embed_dim, dtype=np.float64)
    return r / norm


def _embed_text(model: ScorerModel, text: str) -> np.ndarray:
    return _embed_features(model, model.featurizer.featurize(text))


def bi_embed(model: ScorerModel, text: str) -> np.ndarray:
    """Unit-norm embedding of one text (zero vector for empty text)."""
    model.counters.bi_embed += 1
    return _embed_text(model, text)


def pair_features(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """psi(u, v) = [u * v ; |u - v|], symmetric in its arguments.

    Row-wise for stacks of embeddings: the halves join on the last axis.
    """
    return np.concatenate([u * v, np.abs(u - v)], axis=-1)


def cross_score_pair(model: ScorerModel, u: np.ndarray, v: np.ndarray) -> float:
    model.counters.cross_score += 1
    return float(model.w @ pair_features(u, v))


def cross_score(model: ScorerModel, s: str, t: str) -> float:
    """Joint score of a text pair; both texts are encoded per call."""
    return cross_score_pair(model, _embed_text(model, s), _embed_text(model, t))


def contrastive_loss(s_pos: float, s_neg: float) -> float:
    """-log(exp(s_pos) / (exp(s_pos) + exp(s_neg))), overflow-safe."""
    return float(np.logaddexp(0.0, s_neg - s_pos))


def _feature_block(feats, out: np.ndarray) -> np.ndarray:
    """Write sparse feature vectors as the dense rows of ``out``."""
    out.fill(0.0)
    for row, sv in zip(out, feats):
        row[sv.indices] = sv.values
    return out


def _batch_loss_grad(model: ScorerModel, x: np.ndarray, grad_proj: np.ndarray,
                     grad_w: np.ndarray, rows: np.ndarray | None = None) -> float:
    """Mean loss of a batch of B tuples and its analytic gradient.

    ``x`` stacks the tuples' feature vectors as rows: the B anchors, then
    the B positives, then the B negatives. The mean gradients w.r.t.
    ``proj`` and ``w`` are written into ``grad_proj`` and ``grad_w``.
    With ``rows`` (sorted hash indices covering every nonzero column of
    ``x``), ``grad_proj`` holds only those rows of the ``proj`` gradient;
    the others are exactly zero.
    """
    e = model.embed_dim
    b = x.shape[0] // 3
    w1, w2 = model.w[:e], model.w[e:]

    r = x @ model.proj
    norm = np.sqrt(np.einsum("ij,ij->i", r, r))[:, None]
    live = norm != 0.0  # empty texts embed to the zero vector
    u = np.divide(r, norm, out=np.zeros_like(r), where=live)
    u_a, u_p, u_n = u.reshape(3, b, e)

    psi_pos = pair_features(u_a, u_p)
    psi_neg = pair_features(u_a, u_n)
    delta = psi_neg @ model.w - psi_pos @ model.w
    loss = float(np.logaddexp(0.0, delta).mean())

    # d loss / d s_pos = -g, d loss / d s_neg = +g, with g = sigmoid(delta)
    g = kernels._sigmoid(delta)
    np.matmul(g, psi_neg - psi_pos, out=grad_w)
    grad_w /= b

    g = g[:, None]
    sgn_p = np.sign(u_a - u_p)
    sgn_n = np.sign(u_a - u_n)
    grad_u = np.concatenate([
        g * ((w1 * u_n + w2 * sgn_n) - (w1 * u_p + w2 * sgn_p)),
        -g * (w1 * u_a - w2 * sgn_p),
        g * (w1 * u_a - w2 * sgn_n),
    ])
    # backprop through u = r / |r|, then average over the batch
    radial = np.einsum("ij,ij->i", grad_u, u)[:, None] * u
    grad_r = np.divide(grad_u - radial, norm, out=np.zeros_like(r), where=live)
    grad_r /= b
    np.matmul((x if rows is None else x[:, rows]).T, grad_r, out=grad_proj)
    return loss


def loss_gradient(model: ScorerModel, anchor_text: str, pos_text: str,
                  neg_text: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic gradient of the tuple loss w.r.t. (proj, w)."""
    feats = [model.featurizer.featurize(t) for t in (anchor_text, pos_text, neg_text)]
    x = _feature_block(feats, np.empty((3, model.hash_dim)))
    grad_proj = np.empty_like(model.proj)
    grad_w = np.empty_like(model.w)
    loss = _batch_loss_grad(model, x, grad_proj, grad_w)
    return grad_proj, grad_w, loss


@dataclass
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 1e-2
    warmup_steps: int = 100
    weight_decay: float = 0.01
    epsilon: float = 1e-8
    beta1: float = 0.9
    beta2: float = 0.999
    total_steps: int | None = None
    epochs: int = 3
    seed: int = 0

    def resolve_total_steps(self, n_tuples: int) -> int:
        if self.total_steps is not None:
            return self.total_steps
        return self.epochs * math.ceil(n_tuples / self.batch_size)


def _schedule(t: int, warmup: int, total: int) -> float:
    # linear warmup to 1 at `warmup`, then linear decay to 0 at `total`
    if warmup > 0 and t <= warmup:
        return t / warmup
    if total <= warmup:
        return 1.0
    return max(0.0, (total - t) / (total - warmup))


class TrainingDiverged(RuntimeError):
    pass


def train(model: ScorerModel, tuples, corpus, config: TrainConfig | None = None):
    """Seeded mini-batch AdamW training on contrastive tuples.

    ``tuples`` carry (paper id, paragraph index) references resolved
    against ``corpus``. Returns ``(model, per-step mean losses)``; the
    model is updated in place.
    """
    if config is None:
        config = TrainConfig()
    if not tuples:
        raise ValueError("cannot train on an empty tuple sequence")

    by_id = {p.id: p for p in corpus}
    feat_cache: dict[tuple[str, int], SparseVec] = {}

    def features(ref) -> SparseVec:
        key = (ref[0], ref[1])
        sv = feat_cache.get(key)
        if sv is None:
            sv = model.featurizer.featurize(by_id[ref[0]].paragraphs[ref[1]].text)
            feat_cache[key] = sv
        return sv

    rng = np.random.default_rng(config.seed)
    total = config.resolve_total_steps(len(tuples))
    n = len(tuples)

    m_proj = np.zeros_like(model.proj)
    v_proj = np.zeros_like(model.proj)
    m_w = np.zeros_like(model.w)
    v_w = np.zeros_like(model.w)
    grad_proj = np.empty_like(model.proj)
    grad_w = np.empty_like(model.w)
    # held across steps: allocating the update's block temporaries per call
    # costs fresh pages every step
    adamw_scratch = (np.empty_like(model.proj[:kernels.ADAMW_BLOCK_ROWS]),
                     np.empty_like(model.proj[:kernels.ADAMW_BLOCK_ROWS]))
    x = np.empty((3 * min(config.batch_size, n), model.hash_dim))

    losses = np.empty(total, dtype=np.float64)
    order = rng.permutation(n)
    cursor = 0
    for t in range(1, total + 1):
        if cursor + config.batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        batch = [tuples[i] for i in order[cursor:cursor + config.batch_size]]
        cursor += config.batch_size

        feats = ([features(tup.anchor) for tup in batch]
                 + [features(tup.positive) for tup in batch]
                 + [features(tup.negative) for tup in batch])
        _feature_block(feats, x)
        # hash rows no text in the batch touches have an exactly zero gradient
        rows = np.flatnonzero(x.any(axis=0))
        grad_rows = grad_proj[:rows.size]
        batch_loss = _batch_loss_grad(model, x, grad_rows, grad_w, rows)
        if not math.isfinite(batch_loss):
            raise TrainingDiverged(f"non-finite loss at step {t}")
        losses[t - 1] = batch_loss

        sched = _schedule(t, config.warmup_steps, total)
        lr_t = sched * config.learning_rate
        wd_t = sched * config.weight_decay
        kernels.adamw_step(model.proj, grad_rows, m_proj, v_proj, t,
                           lr_t, config.beta1, config.beta2, config.epsilon, wd_t,
                           adamw_scratch, rows)
        kernels.adamw_step(model.w, grad_w, m_w, v_w, t,
                           lr_t, config.beta1, config.beta2, config.epsilon, wd_t)
        if t % 100 == 0 and not (np.isfinite(model.w).all() and np.isfinite(model.proj).all()):
            raise TrainingDiverged(f"non-finite parameter at step {t}")

    if not (np.isfinite(model.w).all() and np.isfinite(model.proj).all()):
        raise TrainingDiverged(f"non-finite parameter at step {total}")
    return model, losses


def save_model(model: ScorerModel, path, train_config: "TrainConfig | None" = None):
    meta = {
        "version": CHECKPOINT_VERSION,
        "hash_dim": model.hash_dim,
        "embed_dim": model.embed_dim,
        "hash_seed": model.featurizer.hash_seed,
        "max_tokens": model.featurizer.max_tokens,
    }
    if train_config is not None:
        meta["train"] = asdict(train_config)
    write_npz(path, {"proj": [model.proj], "w": [model.w],
                     "meta": [np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)]},
              compress=False)


def load_model(path) -> ScorerModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        proj, w = data["proj"], data["w"]
    shapes = ((meta["hash_dim"], meta["embed_dim"]), (2 * meta["embed_dim"],))
    if (proj.shape, w.shape) != shapes:
        raise ValueError(f"{path}: proj is {proj.shape} and w {w.shape}, but its meta names "
                         f"{shapes[0]} and {shapes[1]}; rerun train-encoder")
    feat = BaseFeaturizer(dim=meta["hash_dim"], hash_seed=meta["hash_seed"],
                          max_tokens=meta["max_tokens"])
    return ScorerModel(featurizer=feat, proj=proj, w=w)


def load_embedding_overrides(path, embed_dim: int | None = None) -> dict[str, np.ndarray]:
    """Load externally computed embeddings, keyed by id.

    Accepts JSON Lines (``{"id": ..., "embedding": [...]}``) or TSV
    (``id<TAB>v1 v2 ...``). Vectors are L2-normalized on load. Paragraph
    leaves are keyed ``<paper_id>#<leaf_index>``, labels and papers by
    their plain ids.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                if line.lstrip().startswith("{"):
                    rec = json.loads(line)
                    key, vec = str(rec["id"]), np.asarray(rec["embedding"], dtype=np.float64)
                else:
                    key, _, rest = line.partition("\t")
                    if not rest:
                        raise ValueError("expected id<TAB>values")
                    vec = np.array(rest.split(), dtype=np.float64)
                if vec.ndim != 1:
                    raise ValueError("the embedding must be a flat list of numbers")
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed record ({exc})") from None
            if embed_dim is not None and vec.shape[0] != embed_dim:
                raise ValueError(
                    f"{path}: line {lineno}: embedding dim {vec.shape[0]} != {embed_dim}")
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}: line {lineno}: non-finite embedding value")
            if key in out:
                raise ValueError(f"{path}: line {lineno}: duplicate id {key!r}")
            norm = np.linalg.norm(vec)
            out[key] = vec / norm if norm > 0 else vec
    return out
