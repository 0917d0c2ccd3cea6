import dataclasses
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklabel import encoder
from weaklabel.encoder import (
    DEFAULT_MAX_TOKENS, BaseFeaturizer, SparseVec, TrainingDiverged, bi_embed, contrastive_loss,
    cross_score, init_model, load_embedding_overrides, load_model,
    loss_gradient, save_model, train, TrainConfig,
)

from weaklabel.corpus import tokenize

from conftest import load_corpus_records, paper_record
from test_kernels import adamw_allocating_reference


def rand_text(rng, n, vocab=40):
    return " ".join(f"tok{rng.integers(vocab)}" for _ in range(n))


class TestFeaturizer:
    def test_empty_text_zero_vector(self):
        sv = BaseFeaturizer(dim=64).featurize("")
        assert sv.nnz == 0 and sv.values.size == 0 and sv.dim == 64

    def test_deterministic(self):
        f = BaseFeaturizer(dim=256, hash_seed=3)
        a = f.featurize("graph neural network")
        b = f.featurize("graph neural network")
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_unit_norm(self):
        sv = BaseFeaturizer(dim=512).featurize("graph neural network")
        assert np.linalg.norm(sv.values) == pytest.approx(1.0, abs=1e-12)

    def test_seed_changes_feature_space(self):
        a = BaseFeaturizer(dim=512, hash_seed=0).featurize("graph neural network")
        b = BaseFeaturizer(dim=512, hash_seed=1).featurize("graph neural network")
        assert not (a.indices.shape == b.indices.shape and
                    (a.indices == b.indices).all())

    def test_truncation_at_max_tokens(self):
        f = BaseFeaturizer(dim=512, max_tokens=256)
        rng = np.random.default_rng(0)
        tokens = [f"t{rng.integers(50)}" for _ in range(300)]
        a = f.featurize(" ".join(tokens))
        b = f.featurize(" ".join(tokens[:256]))
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)


def per_gram_buckets(dim, hash_seed, max_tokens, text):
    """Bucket sums of the signed gram hashes, one keyed blake2b per gram."""
    key = int(hash_seed).to_bytes(8, "little", signed=True)
    tokens = tokenize(text)[:max_tokens]
    buckets: dict[int, float] = {}
    for gram in tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]:
        h = int.from_bytes(blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest(),
                           "little")
        sign = 1.0 if h & (1 << 63) else -1.0
        buckets[h % dim] = buckets.get(h % dim, 0.0) + sign
    return buckets


def per_gram_featurize(f: BaseFeaturizer, text: str) -> SparseVec:
    """Reference featurizer: sums the per-gram signs in a dict, then normalizes."""
    if not tokenize(text):
        return SparseVec(np.empty(0, dtype=np.int64), np.empty(0), f.dim)
    buckets = per_gram_buckets(f.dim, f.hash_seed, f.max_tokens, text)
    idx = np.array(sorted(b for b, v in buckets.items() if v != 0.0), dtype=np.int64)
    val = np.array([buckets[b] for b in idx], dtype=np.float64)
    norm = math.sqrt(float(val @ val))
    if norm > 0.0:
        val /= norm
    return SparseVec(idx, val, f.dim)


def assert_bitwise_equal(a: SparseVec, b: SparseVec):
    assert a.dim == b.dim
    assert a.indices.dtype == b.indices.dtype and a.values.dtype == b.values.dtype
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.values.tobytes() == b.values.tobytes()


LONG_TEXT = " ".join(f"w{i % 97} x{i % 13}" for i in range(400))  # 800 tokens
TINY_DIM_TEXT = "graph neural network models on graph data"


class TestFeaturizerGolden:
    """The word-cached, bincount featurizer equals the per-gram reference bitwise."""

    @pytest.mark.parametrize("hash_seed", [0, -7])
    @pytest.mark.parametrize("dim, text", [
        (2048, ""),
        (2048, "  ,.;!? -- ___ ... "),
        (2048, "graph"),
        (2048, LONG_TEXT),
        (2048, "Naïve Bayes für Ökonomie: 東京 Δx → λ-calculus, naïve again"),
        (4, TINY_DIM_TEXT),
        (3, TINY_DIM_TEXT),
        (1, LONG_TEXT),
    ])
    def test_matches_per_gram_reference(self, dim, text, hash_seed):
        f = BaseFeaturizer(dim=dim, hash_seed=hash_seed)
        want = per_gram_featurize(f, text)
        # the first call fills the word table, the second reads it
        assert_bitwise_equal(f.featurize(text), want)
        assert_bitwise_equal(f.featurize(text), want)

    @pytest.mark.parametrize("hash_seed", [0, -7])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_tiny_dim_case_collides_and_cancels(self, dim, hash_seed):
        # the tiny-dim golden cases exercise collisions and +-1 cancellation
        buckets = per_gram_buckets(dim, hash_seed, DEFAULT_MAX_TOKENS, TINY_DIM_TEXT)
        assert any(v == 0.0 for v in buckets.values())
        assert any(abs(v) > 1.0 for v in buckets.values())

    def test_word_table_shared_across_texts(self):
        f = BaseFeaturizer(dim=512, hash_seed=5)
        texts = ["graph neural network", "neural network pruning", "graph", ""]
        for text in texts:
            assert_bitwise_equal(f.featurize(text), per_gram_featurize(f, text))
        assert set(f._word_codes) == {"graph", "neural", "network", "pruning"}

    def test_word_table_shared_by_threads(self):
        # more threads than cores, switching often, all filling one word table
        f = BaseFeaturizer(dim=256, hash_seed=3)
        rng = np.random.default_rng(1)
        texts = [rand_text(rng, 30, vocab=600) for _ in range(48)]
        want = [per_gram_featurize(f, t) for t in texts]

        def featurize_all(shift):
            order = texts[shift:] + texts[:shift]
            return [f.featurize(t) for t in order], shift

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(featurize_all, 6 * k) for k in range(8)]
                results = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, shift in results:
            for sv, ref in zip(got, want[shift:] + want[:shift]):
                assert_bitwise_equal(sv, ref)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.text(max_size=80), min_size=1, max_size=4),
           dim=st.sampled_from([1, 2, 5, 64, 2048]),
           hash_seed=st.integers(-2**63, 2**63 - 1),
           max_tokens=st.integers(1, 8))
    def test_arbitrary_text_matches_reference(self, texts, dim, hash_seed, max_tokens):
        f = BaseFeaturizer(dim=dim, hash_seed=hash_seed, max_tokens=max_tokens)
        for text in texts:
            assert_bitwise_equal(f.featurize(text), per_gram_featurize(f, text))


class TestBiEmbed:
    def test_identity_projection_gives_basis_vector(self):
        model = init_model(hash_dim=8, embed_dim=4, seed=0)
        model.proj[:] = 0.0
        for i in range(4):
            model.proj[i, i] = 1.0
        one_hot = SparseVec(np.array([2], dtype=np.int64), np.array([1.0]), 8)
        emb = encoder._embed_features(model, one_hot)
        np.testing.assert_array_equal(emb, np.array([0.0, 0.0, 1.0, 0.0]))

    def test_unit_norm_for_nonempty_text(self):
        model = init_model(hash_dim=128, embed_dim=16, seed=1)
        emb = bi_embed(model, "hierarchy aware aggregation of paragraphs")
        assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-6)

    def test_empty_text_zero_embedding(self):
        model = init_model(hash_dim=128, embed_dim=16, seed=1)
        assert not bi_embed(model, " \t ").any()

    def test_whitespace_invariance(self):
        model = init_model(hash_dim=128, embed_dim=16, seed=1)
        a = bi_embed(model, "graph   neural\t network ")
        b = bi_embed(model, "graph neural network")
        np.testing.assert_array_equal(a, b)

    def test_counter_increments(self):
        model = init_model(hash_dim=64, embed_dim=8)
        model.counters.reset()
        bi_embed(model, "a b c")
        bi_embed(model, "d e f")
        assert model.counters.bi_embed == 2


def oracle_cross(model, s, t):
    """Dense re-derivation of w . psi(embed(s), embed(t))."""
    def emb(text):
        sv = model.featurizer.featurize(text)
        dense = np.zeros(sv.dim)
        dense[sv.indices] = sv.values
        r = model.proj.T @ dense
        n = np.linalg.norm(r)
        return r / n if n > 0 else np.zeros_like(r)
    u, v = emb(s), emb(t)
    return float(model.w @ np.concatenate([u * v, np.abs(u - v)]))


class TestCrossScore:
    def test_zero_head_scores_zero(self):
        model = init_model(hash_dim=64, embed_dim=8, seed=0)
        assert cross_score(model, "any text", "other text") == 0.0

    def test_symmetry(self):
        model = init_model(hash_dim=64, embed_dim=8, seed=0)
        rng = np.random.default_rng(1)
        model.w = rng.normal(size=16)
        s, t = rand_text(rng, 12), rand_text(rng, 9)
        assert cross_score(model, s, t) == cross_score(model, t, s)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(2)
        model = init_model(hash_dim=128, embed_dim=16, seed=2)
        model.w = rng.normal(size=32)
        for _ in range(10):
            s, t = rand_text(rng, 15), rand_text(rng, 15)
            assert cross_score(model, s, t) == pytest.approx(
                oracle_cross(model, s, t), abs=1e-12)

    def test_counter_counts_cross_not_bi(self):
        model = init_model(hash_dim=64, embed_dim=8)
        model.counters.reset()
        cross_score(model, "a b", "c d")
        assert model.counters.cross_score == 1
        assert model.counters.bi_embed == 0


class TestContrastiveLoss:
    def test_equal_scores_give_ln2(self):
        assert contrastive_loss(0.7, 0.7) == pytest.approx(math.log(2), abs=1e-15)

    def test_unit_gap(self):
        expected = math.log(1 + math.exp(-1))
        assert contrastive_loss(1.0, 0.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.3133, abs=5e-5)

    def test_extreme_scores_stable(self):
        assert contrastive_loss(50.0, -50.0) == pytest.approx(0.0, abs=1e-12)
        assert math.isfinite(contrastive_loss(-745.0, 745.0))

    def test_depends_only_on_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.normal(size=3) * 5
            assert contrastive_loss(a, b) == pytest.approx(
                contrastive_loss(a + c, b + c), rel=1e-12)

    def test_strictly_decreasing_in_gap(self):
        gaps = np.linspace(-10, 10, 41)
        losses = [contrastive_loss(g, 0.0) for g in gaps]
        assert all(x > y for x, y in zip(losses, losses[1:]))


class TestLossGradient:
    def _random_model(self, seed):
        rng = np.random.default_rng(seed)
        model = init_model(hash_dim=64, embed_dim=8, seed=seed)
        model.w = rng.normal(size=16) * 0.5
        return model

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        step = 1e-5
        for trial in range(10):
            model = self._random_model(trial)
            texts = [rand_text(rng, 10) for _ in range(3)]
            grad_proj, grad_w, _ = loss_gradient(model, *texts)

            def loss_now():
                s_pos = cross_score(model, texts[0], texts[1])
                s_neg = cross_score(model, texts[0], texts[2])
                return contrastive_loss(s_pos, s_neg)

            for _ in range(5):
                if rng.random() < 0.5:
                    i, j = rng.integers(64), rng.integers(8)
                    block, coord, analytic = model.proj, (i, j), grad_proj[i, j]
                else:
                    j = int(rng.integers(16))
                    block, coord, analytic = model.w, j, grad_w[j]
                orig = block[coord]
                block[coord] = orig + step
                up = loss_now()
                block[coord] = orig - step
                down = loss_now()
                block[coord] = orig
                fd = (up - down) / (2 * step)
                denom = max(abs(analytic), abs(fd), 1e-8)
                assert abs(analytic - fd) / denom < 1e-5

    def test_symmetric_tuple_zero_head_gradient(self):
        model = self._random_model(9)
        text = "identical paragraph text for both arms"
        _, grad_w, loss = loss_gradient(model, "anchor words here", text, text)
        np.testing.assert_array_equal(grad_w, np.zeros(16))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_extreme_score_gap_does_not_overflow(self):
        # s_pos >> s_neg drives the logistic factor through exp(large)
        model = init_model(hash_dim=64, embed_dim=8, seed=0)
        model.w = np.concatenate([np.full(8, 1e4), np.zeros(8)])
        grad_proj, grad_w, loss = loss_gradient(
            model, "shared text", "shared text", "totally different words")
        assert np.isfinite(grad_proj).all() and np.isfinite(grad_w).all()
        assert math.isfinite(loss)

    def test_empty_texts_zero_gradient(self):
        model = self._random_model(10)
        grad_proj, grad_w, loss = loss_gradient(model, "", "", "")
        assert not grad_proj.any()
        assert not grad_w.any()
        assert loss == pytest.approx(math.log(2), abs=1e-15)

    def test_batch_equals_mean_of_single_tuples(self):
        rng = np.random.default_rng(12)
        model = self._random_model(12)
        texts = [[rand_text(rng, 10) for _ in range(3)] for _ in range(4)]
        texts[2][1] = ""  # a zero-norm row in the same block as nonzero rows
        singles = [loss_gradient(model, *tup) for tup in texts]

        feats = [model.featurizer.featurize(tup[arm]) for arm in range(3) for tup in texts]
        x = encoder._feature_block(feats, np.empty((12, 64)))
        grad_proj, grad_w = np.empty_like(model.proj), np.empty_like(model.w)
        loss = encoder._batch_loss_grad(model, x, grad_proj, grad_w)

        np.testing.assert_allclose(grad_proj, np.mean([s[0] for s in singles], axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(grad_w, np.mean([s[1] for s in singles], axis=0),
                                   rtol=1e-12)
        assert loss == pytest.approx(np.mean([s[2] for s in singles]), rel=1e-12)


def tiny_corpus(tmp_path, n=24, seed=0):
    """Two topical groups; group membership decides citation links."""
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n):
        topic = "alpha" if i % 2 == 0 else "beta"
        body = " ".join(f"{topic}{rng.integers(8)}" for _ in range(30))
        peers = [f"p{j}" for j in range(n) if j % 2 == i % 2 and j != i]
        recs.append(paper_record(f"p{i}", title=f"{topic} study",
                                 abstract=body,
                                 sections=[{"name": "s", "paragraphs": [body, body]}],
                                 bib_refs=peers[:4]))
    return load_corpus_records(tmp_path, recs)


def tuples_for(corpus, count, seed):
    from weaklabel import citegraph
    graph = citegraph.build_graph(corpus)
    return citegraph.sample_tuples(graph, corpus, citegraph.CO_REFERENCE, count, seed)


class TestTrain:
    def test_first_batch_loss_is_ln2(self, tmp_path):
        corpus = tiny_corpus(tmp_path)
        tuples = tuples_for(corpus, 40, seed=1)
        model = init_model(hash_dim=128, embed_dim=16, seed=0)
        _, losses = train(model, tuples, corpus,
                          TrainConfig(total_steps=5, warmup_steps=2, seed=0))
        assert losses[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_loss_decreases_on_two_topic_corpus(self, tmp_path):
        corpus = tiny_corpus(tmp_path)
        tuples = tuples_for(corpus, 300, seed=2)
        model = init_model(hash_dim=256, embed_dim=32, seed=0)
        _, losses = train(model, tuples, corpus,
                          TrainConfig(total_steps=150, warmup_steps=20, seed=0))
        tail = len(losses) // 10
        assert losses[-tail:].mean() < losses[:tail].mean()

    def test_determinism(self, tmp_path):
        corpus = tiny_corpus(tmp_path)
        tuples = tuples_for(corpus, 60, seed=3)
        runs = []
        for _ in range(2):
            model = init_model(hash_dim=128, embed_dim=16, seed=4)
            model, losses = train(model, tuples, corpus,
                                  TrainConfig(total_steps=30, warmup_steps=5, seed=4))
            runs.append((model.proj.copy(), model.w.copy(), losses.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])

    def test_zero_lr_leaves_only_weight_decay(self, tmp_path):
        corpus = tiny_corpus(tmp_path)
        tuples = tuples_for(corpus, 40, seed=5)
        model = init_model(hash_dim=128, embed_dim=16, seed=6)
        before = model.proj.copy()
        train(model, tuples, corpus,
              TrainConfig(total_steps=10, warmup_steps=2, learning_rate=0.0,
                          weight_decay=0.01, seed=6))
        assert not np.array_equal(model.proj, before)  # decay shrinks
        assert np.all(np.abs(model.proj) <= np.abs(before) + 1e-15)

    def test_zero_lr_zero_wd_bit_identical(self, tmp_path):
        corpus = tiny_corpus(tmp_path)
        tuples = tuples_for(corpus, 40, seed=5)
        model = init_model(hash_dim=128, embed_dim=16, seed=6)
        before_proj, before_w = model.proj.copy(), model.w.copy()
        train(model, tuples, corpus,
              TrainConfig(total_steps=10, warmup_steps=2, learning_rate=0.0,
                          weight_decay=0.0, seed=6))
        np.testing.assert_array_equal(model.proj, before_proj)
        np.testing.assert_array_equal(model.w, before_w)

    def test_nonfinite_aborts_with_step(self, tmp_path):
        corpus = tiny_corpus(tmp_path)
        tuples = tuples_for(corpus, 40, seed=7)
        model = init_model(hash_dim=128, embed_dim=16, seed=8)
        model.proj[0, 0] = np.nan
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDiverged, match="step"):
            train(model, tuples, corpus, TrainConfig(total_steps=5, seed=8))

    def test_empty_tuples_rejected(self, tmp_path):
        corpus = tiny_corpus(tmp_path)
        model = init_model(hash_dim=64, embed_dim=8)
        with pytest.raises(ValueError):
            train(model, [], corpus)


def dense_reference_train(model, tuples, corpus, config):
    """``train`` written with the full backward product and dense AdamW."""
    by_id = {p.id: p for p in corpus}
    rng = np.random.default_rng(config.seed)
    n, total = len(tuples), config.resolve_total_steps(len(tuples))
    m_proj, v_proj = np.zeros_like(model.proj), np.zeros_like(model.proj)
    m_w, v_w = np.zeros_like(model.w), np.zeros_like(model.w)
    losses = []
    order, cursor = rng.permutation(n), 0
    for t in range(1, total + 1):
        if cursor + config.batch_size > n:
            order, cursor = rng.permutation(n), 0
        batch = [tuples[i] for i in order[cursor:cursor + config.batch_size]]
        cursor += config.batch_size
        refs = ([tup.anchor for tup in batch] + [tup.positive for tup in batch]
                + [tup.negative for tup in batch])
        x = np.zeros((len(refs), model.hash_dim))
        for row, (pid, k) in zip(x, refs):
            sv = model.featurizer.featurize(by_id[pid].paragraphs[k].text)
            row[sv.indices] = sv.values
        grads = np.empty_like(model.proj), np.empty_like(model.w)
        losses.append(encoder._batch_loss_grad(model, x, *grads))
        sched = encoder._schedule(t, config.warmup_steps, total)
        args = (t, sched * config.learning_rate, config.beta1, config.beta2,
                config.epsilon, sched * config.weight_decay)
        adamw_allocating_reference(model.proj, grads[0], m_proj, v_proj, *args)
        adamw_allocating_reference(model.w, grads[1], m_w, v_w, *args)
    return model, np.array(losses)


def test_train_bitwise_equals_dense_reference_loop(tmp_path):
    from weaklabel.citegraph import ContrastiveTuple
    corpus = tiny_corpus(tmp_path)
    corpus[0].paragraphs[1].text = ""  # featurizes to an all-zero batch row
    tuples = tuples_for(corpus, 60, seed=9)
    tuples += [ContrastiveTuple(("p0", 1), ("p2", 0), ("p1", 0))] * 4
    config = TrainConfig(total_steps=160, warmup_steps=30, seed=3)
    model, losses = train(init_model(hash_dim=256, embed_dim=32, seed=2), tuples, corpus,
                          config)
    ref, ref_losses = dense_reference_train(init_model(hash_dim=256, embed_dim=32, seed=2),
                                            tuples, corpus, config)
    assert 0.0 < losses[-1] < losses[0]  # the run learned, so the check is not vacuous
    np.testing.assert_array_equal(losses, ref_losses)
    np.testing.assert_array_equal(model.proj, ref.proj)
    np.testing.assert_array_equal(model.w, ref.w)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        model = init_model(hash_dim=128, embed_dim=16, seed=11)
        model.w = rng.normal(size=32)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.proj, model.proj)
        np.testing.assert_array_equal(loaded.w, model.w)
        text = "checkpoint roundtrip text"
        assert cross_score(loaded, text, "other") == cross_score(model, text, "other")

    def test_version_check(self, tmp_path):
        import json
        model = init_model(hash_dim=16, embed_dim=4)
        path = tmp_path / "model.npz"
        meta = {"version": 999, "hash_dim": 16, "embed_dim": 4,
                "hash_seed": 0, "max_tokens": 256}
        np.savez(path, proj=model.proj, w=model.w,
                 meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        with pytest.raises(ValueError, match="version"):
            load_model(path)


    @settings(max_examples=30, deadline=None)
    @given(hash_dim=st.integers(1, 64), embed_dim=st.integers(1, 12),
           hash_seed=st.integers(0, 2**31), max_tokens=st.integers(1, 500),
           trained=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_and_bytes_equal_savez(self, hash_dim, embed_dim, hash_seed, max_tokens,
                                             trained, seed):
        model = init_model(hash_dim=hash_dim, embed_dim=embed_dim, seed=seed)
        model.featurizer = BaseFeaturizer(dim=hash_dim, hash_seed=hash_seed,
                                          max_tokens=max_tokens)
        model.w = np.random.default_rng(seed).normal(size=2 * embed_dim)
        config = TrainConfig(total_steps=7, seed=seed) if trained else None
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = os.path.join(tmp, "model.npz"), os.path.join(tmp, "ref.npz")
            save_model(model, path, config)
            reference_save_model(model, ref, config)
            with open(path, "rb") as a, open(ref, "rb") as r:
                assert a.read() == r.read()
            loaded = load_model(path)
        np.testing.assert_array_equal(loaded.proj, model.proj)
        np.testing.assert_array_equal(loaded.w, model.w)
        assert (loaded.hash_dim, loaded.embed_dim, loaded.featurizer.hash_seed,
                loaded.featurizer.max_tokens) == (hash_dim, embed_dim, hash_seed, max_tokens)
        assert loaded.proj.flags.writeable and loaded.w.flags.writeable

    @pytest.mark.parametrize("proj_shape, w_len", [((17, 4), 8), ((15, 4), 8), ((16, 5), 8),
                                                   ((16, 4), 9), ((16, 4), 4)])
    def test_archive_disagreeing_with_its_meta_rejected(self, tmp_path, proj_shape, w_len):
        path = tmp_path / "model.npz"
        save_model(init_model(hash_dim=16, embed_dim=4), path)
        with np.load(path) as data:
            meta = data["meta"]
        np.savez(path, proj=np.zeros(proj_shape), w=np.zeros(w_len), meta=meta)
        with pytest.raises(ValueError, match=r"model.npz: proj is .*rerun train-encoder"):
            load_model(path)


def reference_save_model(model, path, train_config=None):
    """The checkpoint writer before write_npz: np.savez of the arrays."""
    meta = {"version": encoder.CHECKPOINT_VERSION, "hash_dim": model.hash_dim,
            "embed_dim": model.embed_dim, "hash_seed": model.featurizer.hash_seed,
            "max_tokens": model.featurizer.max_tokens}
    if train_config is not None:
        meta["train"] = dataclasses.asdict(train_config)
    with open(path, "wb") as fh:
        np.savez(fh, proj=model.proj, w=model.w,
                 meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))


class TestEmbeddingOverrides:
    def test_tsv_and_jsonl(self, tmp_path):
        tsv = tmp_path / "emb.tsv"
        tsv.write_text("L1\t3 0 0 0\npaper9#2\t0 1 0 0\n")
        out = load_embedding_overrides(tsv, embed_dim=4)
        np.testing.assert_allclose(out["L1"], [1, 0, 0, 0])  # normalized
        np.testing.assert_allclose(out["paper9#2"], [0, 1, 0, 0])

        jsonl = tmp_path / "emb.jsonl"
        jsonl.write_text('{"id": "L2", "embedding": [0, 0, 2, 0]}\n')
        out = load_embedding_overrides(jsonl, embed_dim=4)
        np.testing.assert_allclose(out["L2"], [0, 0, 1, 0])

    @pytest.mark.parametrize("text", [
        "L0\t0 0 1 0\nL1\t1 0 0 0\nL1\t0 1 0 0\n",
        '{"id": "L0", "embedding": [0, 0, 1, 0]}\n{"id": "L1", "embedding": [1, 0, 0, 0]}\n'
        '{"id": "L1", "embedding": [0, 1, 0, 0]}\n',
    ], ids=["tsv", "jsonl"])
    def test_duplicate_id_rejected(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"emb\.txt: line 3: duplicate id 'L1'"):
            load_embedding_overrides(path, embed_dim=4)

    def test_dim_mismatch_rejected(self, tmp_path):
        tsv = tmp_path / "emb.tsv"
        tsv.write_text("L1\t1 2 3\n")
        with pytest.raises(ValueError, match="dim"):
            load_embedding_overrides(tsv, embed_dim=4)

    @pytest.mark.parametrize("line", ["L1\t1 nan 0 0\n", "L1\t1 inf 0 0\n",
                                      '{"id": "L1", "embedding": [1, NaN, 0, 0]}\n',
                                      '{"id": "L1", "embedding": [1, -Infinity, 0, 0]}\n'])
    def test_nonfinite_rejected(self, tmp_path, line):
        path = tmp_path / "emb.txt"
        path.write_text("L0\t1 0 0 0\n" + line)
        with pytest.raises(ValueError, match=r"emb\.txt: line 2: non-finite"):
            load_embedding_overrides(path, embed_dim=4)

    def test_malformed_tsv_rejected(self, tmp_path):
        tsv = tmp_path / "emb.tsv"
        tsv.write_text("L1 no tab separator\n")
        with pytest.raises(ValueError, match="TAB"):
            load_embedding_overrides(tsv)

    @pytest.mark.parametrize("line", ['{"id": "L1", "embedding": [1, 0, 0, 0\n',
                                      '{"embedding": [1, 0, 0, 0]}\n',
                                      '{"id": "L1", "vector": [1, 0, 0, 0]}\n',
                                      "L1\t1 x 0 0\n",
                                      '{"id": "L1", "embedding": 5}\n'])
    def test_malformed_record_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "emb.txt"
        path.write_text("L0\t1 0 0 0\n" + line)
        with pytest.raises(ValueError, match=r"emb\.txt: line 2: malformed record"):
            load_embedding_overrides(path, embed_dim=4)
