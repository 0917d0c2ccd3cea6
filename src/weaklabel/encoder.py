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

import math
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from . import kernels
from .config import PipelineConfig
from .corpus import _JSON, CorpusError, _check, read_keyed, read_npz, tokenize, write_npz

DEFAULT_MAX_TOKENS = 256

CHECKPOINT_VERSION = 2  # 1 hashed each bigram with its own digest
META_FIELDS = {"version": "int", "hash_dim": "int", "embed_dim": "int", "hash_seed": "int",
               "max_tokens": "int", "train?": "object"}  # encoder.npz's meta
# meta "train": each key and the PipelineConfig field it records, then the training "seed"
TRAIN_META = {"batch_size": "batch_size", "learning_rate": "learning_rate",
              "warmup_steps": "warmup_steps", "weight_decay": "weight_decay",
              "epsilon": "epsilon", "beta1": "beta1", "beta2": "beta2",
              "total_steps": "train_steps", "epochs": "train_epochs"}
OVERRIDE_FIELDS = {"id": "id", "embedding": "list[float]"}  # an --embeddings line


class BaseFeaturizer:
    """Deterministic tf-weighted signed-hash features over 1/2-grams.

    The hash is keyed by ``hash_seed`` so feature spaces are reproducible
    across processes. Output vectors are L2-normalized; empty text maps
    to the zero vector.

    Each gram's 64-bit code ``h`` gives its bucket ``h % dim`` and its
    sign (top bit set: +1). A word's code is its 8-byte keyed blake2b
    digest read as a little-endian uint64, kept per instance, since each
    word recurs in many texts. A bigram's code is mixed in numpy from its
    word codes ``a, b``: the splitmix64 finalizer of
    ``a * 0x9E3779B97F4A7C15 + b`` (mod 2**64), so no bigram is digested.

    ``featurize_many`` is the one path (``featurize`` is a batch of one).
    Its numpy calls cost about the same for one text as for hundreds, so
    callers batch; a row is bitwise the same in any batch.
    """

    def __init__(self, dim: int = PipelineConfig.hash_dim, hash_seed: int = 0,
                 max_tokens: int = DEFAULT_MAX_TOKENS):
        self.dim = dim
        self.hash_seed = hash_seed
        self.max_tokens = max_tokens
        self._keyed = blake2b(digest_size=8,
                              key=int(hash_seed).to_bytes(8, "little", signed=True))
        self._word_codes: dict[str, bytes] = {}

    def featurize(self, text: str) -> kernels.CsrMatrix:
        return self.featurize_many([text])

    def featurize_many(self, texts) -> kernels.CsrMatrix:
        """The feature vectors of the texts, as the rows of one matrix in order."""
        words = self._word_codes
        codes, counts = [], []  # every text's word codes, joined, and their counts
        for text in texts:
            tokens = tokenize(text)[: self.max_tokens]
            for w in tokens:
                code = words.get(w)
                if code is None:
                    hasher = self._keyed.copy()
                    hasher.update(w.encode("utf-8"))
                    code = words[w] = hasher.digest()
                codes.append(code)
            counts.append(len(tokens))
        u = np.frombuffer(b"".join(codes), dtype="<u8")
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        pair = row[1:] == row[:-1]  # adjacent tokens of one text
        # uint64 arrays wrap mod 2**64 (a numpy scalar would warn instead)
        x = u[:-1][pair] * np.uint64(0x9E3779B97F4A7C15) + u[1:][pair]
        x ^= x >> np.uint64(30)  # the splitmix64 finalizer
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        h = np.concatenate([u, x])
        keys = np.concatenate([row, row[1:][pair]]) * self.dim
        keys, at = np.unique(keys + (h % self.dim).astype(np.int64), return_inverse=True)
        # sums of +-1.0, and of their squares, are exact, so the order of
        # accumulation is immaterial
        sums = np.bincount(at, weights=(h >> 63).astype(np.float64) * 2.0 - 1.0)
        live = sums != 0.0
        keys, sums = keys[live], sums[live]
        row = keys // self.dim
        idx = keys - row * self.dim
        val = sums / np.sqrt(np.bincount(row, weights=sums * sums))[row]
        return kernels.CsrMatrix(val, idx, np.searchsorted(row, np.arange(len(counts) + 1)),
                                 len(counts), self.dim)


@dataclass
class CallCounters:
    """Inference-call accounting for complexity checks."""

    bi_embed: int = 0
    cross_score: int = 0


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


def init_model(hash_dim: int = PipelineConfig.hash_dim,
               embed_dim: int = PipelineConfig.embed_dim, seed: int = 0) -> ScorerModel:
    """Seeded init: uniform projection scaled by 1/sqrt(hash_dim), zero head.

    A zero head makes every initial score 0, so the first training batch
    has mean loss exactly ln 2.
    """
    rng = np.random.default_rng(seed)
    proj = rng.uniform(-1.0, 1.0, size=(hash_dim, embed_dim)) / math.sqrt(hash_dim)
    w = np.zeros(2 * embed_dim, dtype=np.float64)
    feat = BaseFeaturizer(dim=hash_dim, hash_seed=seed)
    return ScorerModel(featurizer=feat, proj=proj, w=w)


def _embed_features(model: ScorerModel, X: kernels.CsrMatrix, i: int) -> np.ndarray:
    """The unit-norm embedding of row ``i`` of a feature matrix."""
    lo, hi = X.indptr[i], X.indptr[i + 1]
    r = kernels.project_rows(model.proj, X.indices[lo:hi], X.data[lo:hi])
    norm = math.sqrt(float(r @ r))
    return r / norm if norm != 0.0 else np.zeros(model.embed_dim, dtype=np.float64)


def bi_embed(model: ScorerModel, text: str) -> np.ndarray:
    """Unit-norm embedding of one text (zero vector for empty text)."""
    model.counters.bi_embed += 1
    return _embed_features(model, model.featurizer.featurize(text), 0)


def pair_features(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """psi(u, v) = [u * v ; |u - v|], symmetric in its arguments.

    Row-wise for stacks of embeddings: the halves join on the last axis.
    """
    return np.concatenate([u * v, np.abs(u - v)], axis=-1)


def cross_score_pair(model: ScorerModel, u: np.ndarray, v: np.ndarray) -> float:
    model.counters.cross_score += 1
    return float(model.w @ pair_features(u, v))


def cross_score(model: ScorerModel, s: str, t: str) -> float:
    """Joint score of a text pair; both texts are featurized in one call."""
    X = model.featurizer.featurize_many([s, t])
    u, v = _embed_features(model, X, 0), _embed_features(model, X, 1)
    return cross_score_pair(model, u, v)


def contrastive_loss(s_pos: float, s_neg: float) -> float:
    """-log(exp(s_pos) / (exp(s_pos) + exp(s_neg))), overflow-safe."""
    return float(np.logaddexp(0.0, s_neg - s_pos))


def _batch_loss_grad(model: ScorerModel, x: np.ndarray, grad_proj: np.ndarray,
                     grad_w: np.ndarray, rows: np.ndarray) -> float:
    """Mean loss of a batch of B tuples and its analytic gradient.

    ``x`` stacks the tuples' feature vectors as rows: the B anchors, then
    the B positives, then the B negatives. ``rows`` are sorted hash
    indices covering every nonzero column of ``x``; the forward and the
    backward product run over those columns and projection rows only,
    since every other row of the ``proj`` gradient is exactly zero. The
    mean gradients are written into ``grad_proj`` (one row per entry of
    ``rows``) and ``grad_w``.
    """
    e = model.embed_dim
    b = x.shape[0] // 3
    w1, w2 = model.w[:e], model.w[e:]

    x = x[:, rows]
    r = x @ model.proj[rows]
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
    np.matmul(x.T, grad_r, out=grad_proj)
    return loss


def loss_gradient(model: ScorerModel, anchor_text: str, pos_text: str,
                  neg_text: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic gradient of the tuple loss w.r.t. (proj, w)."""
    X = model.featurizer.featurize_many([anchor_text, pos_text, neg_text])
    _, x = next(kernels._dense_blocks(kernels._row_blocks(X, np.arange(3), 3),
                                      np.zeros((3, model.hash_dim))))
    rows = np.flatnonzero(x.any(axis=0))
    grad_rows = np.empty((rows.size, model.embed_dim))
    grad_w = np.empty_like(model.w)
    loss = _batch_loss_grad(model, x, grad_rows, grad_w, rows)
    grad_proj = np.zeros_like(model.proj)
    grad_proj[rows] = grad_rows
    return grad_proj, grad_w, loss


def _schedule(t: int, warmup: int, total: int) -> float:
    # linear warmup to 1 at `warmup`, then linear decay to 0 at `total`
    if warmup > 0 and t <= warmup:
        return t / warmup
    if total <= warmup:
        return 1.0
    return max(0.0, (total - t) / (total - warmup))


class TrainingDiverged(RuntimeError):
    pass


def train(model: ScorerModel, tuples, corpus, config: PipelineConfig | None = None,
          seed: int = 0):
    """Mini-batch AdamW training on contrastive tuples, its draws seeded by ``seed``.

    ``tuples`` carry (paper id, paragraph index) references into ``corpus``.
    Reads ``config``'s batch_size, learning_rate, warmup_steps, weight_decay,
    epsilon, beta1, beta2, and train_steps, or train_epochs passes when that
    is None. Returns ``(model, per-step mean losses)``, the model updated in place.
    """
    if config is None:
        config = PipelineConfig()
    if not tuples:
        raise ValueError("cannot train on an empty tuple sequence")

    rng = np.random.default_rng(seed)
    n = len(tuples)
    total = (config.train_steps if config.train_steps is not None
             else config.train_epochs * math.ceil(n / config.batch_size))
    b = min(config.batch_size, n)  # tuples per step

    # lay out every step first: row_of numbers the distinct drawn paragraphs,
    # featurized in one call; a step's rows are its anchors, positives, negatives
    row_of: dict[tuple[str, int], int] = {}
    steps = np.empty((total, 3 * b), dtype=np.int64)
    order = rng.permutation(n)
    cursor = 0
    for t in range(total):
        if cursor + config.batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        batch = [tuples[i] for i in order[cursor:cursor + config.batch_size]]
        cursor += config.batch_size
        steps[t] = [row_of.setdefault(ref, len(row_of)) for ref in
                    [tup.anchor for tup in batch] + [tup.positive for tup in batch]
                    + [tup.negative for tup in batch]]
    paragraphs = {p.id: p.paragraphs for p in corpus}
    feats = model.featurizer.featurize_many([paragraphs[pid][k] for pid, k in row_of])

    m_proj, v_proj = np.zeros_like(model.proj), np.zeros_like(model.proj)
    m_w, v_w = np.zeros_like(model.w), np.zeros_like(model.w)
    grad_proj = np.empty_like(model.proj)
    grad_w = np.empty_like(model.w)
    # held across steps: allocating the update's block temporaries per call
    # costs fresh pages every step
    adamw_scratch = (np.empty_like(model.proj[:kernels.ADAMW_BLOCK_ROWS]),
                     np.empty_like(model.proj[:kernels.ADAMW_BLOCK_ROWS]))
    blocks = kernels._row_blocks(feats, steps.reshape(-1), 3 * b)  # one per step

    losses = np.empty(total, dtype=np.float64)
    for t, (_, x) in enumerate(kernels._dense_blocks(blocks, np.zeros((3 * b, model.hash_dim))),
                               start=1):
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


def save_model(model: ScorerModel, path, config: PipelineConfig | None = None,
               seed: int = 0):
    """Write ``model`` to ``path``; given the ``config`` and ``seed`` it was trained
    with, its meta "train" records their TRAIN_META fields and the seed."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "hash_dim": model.hash_dim,
        "embed_dim": model.embed_dim,
        "hash_seed": model.featurizer.hash_seed,
        "max_tokens": model.featurizer.max_tokens,
    }
    if config is not None:
        meta["train"] = {key: getattr(config, name) for key, name in TRAIN_META.items()}
        meta["train"]["seed"] = seed
    write_npz(path, {"proj": model.proj, "w": model.w}, meta)


def _member_shapes(meta: dict) -> dict:
    """The shapes of a checkpoint's ``proj`` and ``w`` under its meta (of META_FIELDS)."""
    # a zero width scores every pair 0 or indexes nothing; a slice to 0 tokens drops every word
    for key in ("hash_dim", "embed_dim", "max_tokens"):
        if meta[key] < 1:
            raise ValueError(f"meta {key} {meta[key]} is not positive")
    if not -2**63 <= meta["hash_seed"] < 2**63:  # the hash key is its 8 bytes
        raise ValueError(f"meta hash_seed {meta['hash_seed']} is not a signed 64-bit int")
    return {"proj": (meta["hash_dim"], meta["embed_dim"]), "w": (2 * meta["embed_dim"],)}


def load_model(path) -> ScorerModel:
    meta, members = read_npz(path, "checkpoint", CHECKPOINT_VERSION, META_FIELDS, _member_shapes)
    feat = BaseFeaturizer(dim=meta["hash_dim"], hash_seed=meta["hash_seed"],
                          max_tokens=meta["max_tokens"])
    return ScorerModel(featurizer=feat, proj=members["proj"], w=members["w"])


def load_embedding_overrides(path, embed_dim: int | None = None) -> dict[str, np.ndarray]:
    """Load externally computed embeddings, keyed by id.

    Accepts JSON Lines (``{"id": ..., "embedding": [...]}``) or TSV
    (``id<TAB>v1 v2 ...``), a TSV line read as that record with float
    values. Vectors are L2-normalized on load. Paragraph leaves are keyed
    ``<paper_id>#<leaf_index>``, labels and papers by their plain ids.
    """
    def parse(line: str) -> dict:
        if line.startswith("{"):
            return _JSON.decode(line)
        key, _, rest = line.partition("\t")
        if not rest:
            raise ValueError("expected id<TAB>values")
        return {"id": key, "embedding": [float(v) for v in rest.split()]}

    def build(rec: dict) -> tuple[str, np.ndarray]:
        vec = np.array(_check(rec, OVERRIDE_FIELDS)["embedding"], dtype=np.float64)
        if embed_dim is not None and vec.shape[0] != embed_dim:
            raise CorpusError(f"embedding dim {vec.shape[0]} != {embed_dim}")
        scale = np.abs(vec).max(initial=0.0)
        if scale >= 1e150 or scale > 0 and np.linalg.norm(vec) < 1e-150:
            vec = vec / scale  # else the squares in the norm over- or underflow
        norm = np.linalg.norm(vec)
        return str(rec["id"]), vec / norm if norm > 0 else vec

    return read_keyed(path, build, "id", parse)
