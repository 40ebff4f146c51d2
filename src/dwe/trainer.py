"""Training orchestration: epochs, batching, adagrad state, checkpoints.

A batch is `batch_size` (center, context) pairs; gradients are
accumulated over the batch and applied once (mini-batch adagrad).
A sentence's negatives are drawn with the key (run seed, sentence
index), and every epoch visits the sentences in the same order, so
every epoch scores the same pairs against the same negatives and
per-epoch mean losses are comparable. One epoch loop serves both modes:
workers take batches from one stream under a lock and apply their own
updates. Deterministic mode has one worker, the calling thread, and is
bit-reproducible for a fixed seed. Hogwild mode has `threads` workers
that update embedding rows without a lock; it trains without the glyph
channel, so the CNN only ever has one writer.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import struct
import sys
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import NegativeSampler, Vocab, build_vocab, context_pairs, read_sentences
from .glyph_cnn import CnnParams, cnn_init
from .model import (DweModel, EmbeddingTables, adagrad_step, adagrad_step_rows,
                    init_tables)
from .morphology import (GlyphPackError, StrokeNgramDict, build_ngram_dict,
                         dump_glyph_records, is_cjk, load_glyph_pack, load_stroke_table,
                         parse_glyph_records)

CHECKPOINT_MAGIC = b"DWE1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


class ConfigMismatchError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainingConfig:
    dim: int = 300
    lr: float = 0.05
    batch_size: int = 4096
    n_min: int = 3
    n_max: int = 6
    window: int = 5
    negatives: int = 5
    alpha: float = 1.0
    epochs: int = 5
    min_count: int = 5
    seed: int = 1
    mode: str = "deterministic"  # or "hogwild"
    threads: int = 1
    eps: float = 1e-8
    use_ngrams: bool = True
    use_glyphs: bool = True
    subsample: float = 0.0  # 0 disables frequent-word subsampling
    dtype: str = "float32"

    def validate(self) -> None:
        if self.dim < 1 or self.batch_size < 1 or self.window < 1:
            raise ValueError("dim, batch_size, window must be positive")
        if not (0 < self.lr < math.inf and 0 < self.eps < math.inf):
            raise ValueError(f"lr and eps must be finite and positive, got {self.lr}, {self.eps}")
        if not 0 <= self.subsample < math.inf:
            raise ValueError(f"subsample must be finite and >= 0, got {self.subsample}")
        if not (1 <= self.n_min <= self.n_max):
            raise ValueError(f"need 1 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        if self.negatives < 1 or self.epochs < 0 or self.min_count < 1:
            raise ValueError("negatives, min_count must be >= 1 and epochs >= 0")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mode not in ("deterministic", "hogwild"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.mode == "deterministic" and self.threads > 1:
            raise ValueError("deterministic mode trains one thread; use hogwild for more")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)}"
                for f in sorted(fields(self), key=lambda f: f.name)]

    @classmethod
    def from_lines(cls, lines: list[str]) -> "TrainingConfig":
        kwargs = {}
        types = {f.name: f.type for f in fields(cls)}
        defaults = cls()
        for line in lines:
            if not line.strip():
                continue
            key, _, val = line.partition("=")
            if key not in types:
                raise CheckpointError(f"unknown config key {key!r}")
            cur = getattr(defaults, key)
            if isinstance(cur, bool):
                kwargs[key] = {"True": True, "False": False}[val]
            elif isinstance(cur, int):
                kwargs[key] = int(val)
            elif isinstance(cur, float):
                kwargs[key] = float(val)
            else:
                kwargs[key] = val
        config = cls(**kwargs)
        config.validate()
        return config


@dataclass
class Accumulators:
    word_id: np.ndarray
    context: np.ndarray
    ngram: np.ndarray
    cnn: CnnParams

    @classmethod
    def zeros(cls, tables: EmbeddingTables, cnn: CnnParams) -> "Accumulators":
        return cls(np.zeros_like(tables.word_id_vecs),
                   np.zeros_like(tables.context_vecs),
                   np.zeros_like(tables.ngram_vecs),
                   cnn.zeros_like())


@dataclass
class Checkpoint:
    config: TrainingConfig
    vocab: Vocab
    ngram_dict: StrokeNgramDict
    glyphs: dict[str, np.ndarray]
    tables: EmbeddingTables
    cnn: CnnParams
    accum: Accumulators
    epoch: int = 0
    step: int = 0
    # per-epoch mean objective from the most recent training run; in-memory
    # only, not serialized
    epoch_mean_losses: list[float] = field(default_factory=list)

    def model(self) -> DweModel:
        return DweModel(self.vocab, self.ngram_dict, self.glyphs, self.tables,
                        self.cnn, self.config.use_ngrams, self.config.use_glyphs)


def _check_resumable(old: TrainingConfig, new: TrainingConfig) -> None:
    for key in ("dim", "n_min", "n_max", "dtype"):
        if getattr(old, key) != getattr(new, key):
            raise ConfigMismatchError(
                f"checkpoint has {key}={getattr(old, key)}, requested {getattr(new, key)}")


def init_checkpoint(vocab: Vocab, ngram_dict: StrokeNgramDict,
                    glyphs: dict[str, np.ndarray], config: TrainingConfig) -> Checkpoint:
    config.validate()
    dtype = config.np_dtype
    tables = init_tables(len(vocab), len(ngram_dict), config.dim, config.seed, dtype)
    cnn = cnn_init(config.seed + 1, config.dim, dtype)
    return Checkpoint(config, vocab, ngram_dict, glyphs, tables, cnn,
                      Accumulators.zeros(tables, cnn))


def apply_grads(ckpt: Checkpoint, grads, lr: float, eps: float) -> None:
    """Adagrad, in place, on the touched embedding rows and on the CNN."""
    t, a = ckpt.tables, ckpt.accum
    adagrad_step_rows(t.word_id_vecs, a.word_id, grads.word_id_ids,
                      grads.word_id_rows, lr, eps)
    adagrad_step_rows(t.context_vecs, a.context, grads.context_ids,
                      grads.context_rows, lr, eps)
    adagrad_step_rows(t.ngram_vecs, a.ngram, grads.ngram_ids, grads.ngram_rows, lr, eps)
    if grads.cnn is not None:
        for (_, p), (_, g), (_, acc) in zip(ckpt.cnn.tensors(), grads.cnn.tensors(),
                                            a.cnn.tensors()):
            adagrad_step(p, g, acc, lr, eps)


def _epoch_batches(sentences: list[np.ndarray], config: TrainingConfig,
                   sampler: NegativeSampler, keep_prob: np.ndarray | None):
    """Yield (centers, contexts, negatives) batch arrays for one epoch.

    The sentence order and the subsampling (each token kept with
    probability keep_prob[id], or all kept when None) come from a
    generator seeded with the run seed, and a sentence's negatives are
    drawn with the key (run seed, sentence index). Neither depends on the
    epoch, so every epoch scores the same multiset of (pair, negatives)
    triples and per-epoch mean losses are directly comparable.
    """
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(sentences))
    size = config.batch_size
    # (center, context, negatives...) rows not yet yielded
    pending: list[np.ndarray] = []
    buffered = 0
    for si in order:
        sent = sentences[si]
        if keep_prob is not None:
            sent = sent[rng.random(len(sent)) < keep_prob[sent]]
        pairs = context_pairs(sent, config.window)
        if not len(pairs):
            continue
        negatives = sampler.draw_batch(config.negatives, pairs[:, 0], (config.seed, int(si)))
        pending.append(np.hstack([pairs, negatives]))
        buffered += len(pairs)
        while buffered >= size:
            rows = np.concatenate(pending)
            yield rows[:size, 0], rows[:size, 1], rows[:size, 2:]
            pending = [rows[size:]]
            buffered -= size
    if buffered:
        rows = np.concatenate(pending)
        yield rows[:, 0], rows[:, 1], rows[:, 2:]


def _train_epoch(ckpt: Checkpoint, model: DweModel, sentences: list[np.ndarray],
                 sampler: NegativeSampler, keep_prob: np.ndarray | None) -> tuple[float, int]:
    """One epoch; returns the summed loss and the number of pairs.

    Each worker takes the next batch of the one `_epoch_batches` stream
    under `lock` and applies its own gradients. The calling thread is the
    only worker in deterministic mode and one of `threads` in hogwild
    mode. The first exception in any worker stops the others and is
    raised here.
    """
    cfg = ckpt.config
    batches = _epoch_batches(sentences, cfg, sampler, keep_prob)
    lock = threading.Lock()
    totals = [0.0, 0]
    errors: list[BaseException] = []

    def work() -> None:
        try:
            while True:
                with lock:
                    batch = None if errors else next(batches, None)
                if batch is None:
                    return
                loss, grads = model.batch_loss_and_grads(*batch)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch={ckpt.epoch} step={ckpt.step}")
                apply_grads(ckpt, grads, cfg.lr, cfg.eps)
                with lock:
                    totals[0] += loss
                    totals[1] += len(batch[0])
                    ckpt.step += 1
        except BaseException as exc:
            with lock:
                errors.append(exc)

    helpers = [threading.Thread(target=work)
               for _ in range(cfg.threads - 1 if cfg.mode == "hogwild" else 0)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return totals[0], totals[1]


def train(corpus_path, stroke_table_path, glyph_pack_path,
          config: TrainingConfig, resume=None, log=sys.stderr) -> Checkpoint:
    """Train a new checkpoint, or resume the checkpoint file `resume` with its
    own vocabulary, n-gram dictionary and glyphs, so that a resumed run reads
    the corpus only. The config is checked before any input is read, and the
    file is left unchanged. Hogwild mode refuses the glyph channel (README
    "CLI" says why)."""
    config.validate()
    if config.mode == "hogwild" and config.use_glyphs:
        raise ValueError("hogwild mode trains without the glyph channel; add --no-glyphs")
    if resume is not None:
        ckpt = load_checkpoint(resume)
        _check_resumable(ckpt.config, config)
        ckpt.config = config
        return train_checkpoint(ckpt, corpus_path, log=log)
    tokens = (tok for sent in read_sentences(corpus_path) for tok in sent)
    vocab = build_vocab(tokens, config.min_count)
    stroke_table = load_stroke_table(stroke_table_path)
    glyph_table = load_glyph_pack(glyph_pack_path)
    observed = {c for w in vocab.words for c in w if is_cjk(c)}
    ngram_dict = build_ngram_dict(stroke_table, observed, config.n_min, config.n_max)
    if ngram_dict.skipped and log is not None:
        print(f"warning: {len(ngram_dict.skipped)} characters lack stroke data",
              file=log)
    glyphs = {c: glyph_table[c] for c in observed if c in glyph_table}
    missing_glyphs = observed - set(glyphs)
    if missing_glyphs and log is not None:
        print(f"warning: {len(missing_glyphs)} characters lack glyphs (zero bitmap)",
              file=log)
    return train_checkpoint(init_checkpoint(vocab, ngram_dict, glyphs, config),
                            corpus_path, log=log)


def train_checkpoint(ckpt: Checkpoint, corpus_path, log=sys.stderr) -> Checkpoint:
    """Run ckpt.config.epochs over the corpus, mutating ckpt in place."""
    cfg = ckpt.config
    id_of = ckpt.vocab.id_of
    sentences = []
    for toks in read_sentences(corpus_path):
        ids = np.array([id_of[t] for t in toks if t in id_of], dtype=np.int64)
        if len(ids) >= 2:
            sentences.append(ids)
    model = ckpt.model()
    sampler = NegativeSampler(ckpt.vocab.counts, cfg.alpha)
    keep_prob = None
    if cfg.subsample > 0:
        freq = ckpt.vocab.counts / ckpt.vocab.counts.sum()
        keep_prob = np.minimum(1.0, np.sqrt(cfg.subsample / freq))
    start = time.monotonic()
    for _ in range(cfg.epochs):
        loss, pairs = _train_epoch(ckpt, model, sentences, sampler, keep_prob)
        ckpt.epoch += 1
        mean = loss / pairs if pairs else float("nan")
        ckpt.epoch_mean_losses.append(mean)
        if log is not None:
            print(f"epoch={ckpt.epoch} loss={mean:.6f} pairs={pairs} "
                  f"elapsed={time.monotonic() - start:.1f}", file=log)
    return ckpt


# -- serialization ---------------------------------------------------------
#
# A v1 checkpoint is CHECKPOINT_MAGIC, a u16 version, and eight sections, each
# a u64 byte length and its payload, in the order `_write_checkpoint` writes
# and `load_checkpoint` reads them: config, vocab and n-gram dictionary as
# UTF-8 lines, the glyph records of a glyph pack, the three `_float_sections`,
# and the epoch and step counters.

def _float_sections(ckpt: Checkpoint) -> list[list[tuple[object, str]]]:
    """The tables, CNN and accumulator sections, each a list of the (owner,
    attribute) of its arrays in file order. Arrays are stored as `<f4`."""
    t, a = ckpt.tables, ckpt.accum
    return [[(t, "word_id_vecs"), (t, "context_vecs"), (t, "ngram_vecs")],
            [(ckpt.cnn, f) for f in CnnParams.FIELDS],
            [(a, "word_id"), (a, "context"), (a, "ngram")]
            + [(a.cnn, f) for f in CnnParams.FIELDS]]


def _write_checkpoint(ckpt: Checkpoint, fh) -> None:
    def write_section(payload: bytes) -> None:
        fh.write(struct.pack("<Q", len(payload)) + payload)

    def text(lines: list[str]) -> bytes:
        return ("\n".join(lines) + "\n").encode("utf-8")

    nd = ckpt.ngram_dict
    vocab = [f"total_tokens={ckpt.vocab.total_tokens}"]
    vocab += [f"{w}\t{int(c)}" for w, c in zip(ckpt.vocab.words, ckpt.vocab.counts)]
    ngrams = [f"n_min={nd.n_min} n_max={nd.n_max}", f"ngrams={len(nd)}"]
    ngrams += [",".join(map(str, ng)) for ng in nd.ngrams]
    ngrams.append(f"chars={len(nd.per_char)}")
    ngrams += [f"{c}\t{','.join(map(str, nd.per_char[c]))}" for c in sorted(nd.per_char)]
    ngrams.append(f"skipped={len(nd.skipped)}")
    ngrams += sorted(nd.skipped)

    fh.write(CHECKPOINT_MAGIC + struct.pack("<H", CHECKPOINT_VERSION))
    write_section(text(ckpt.config.to_lines()))
    write_section(text(vocab))
    write_section(text(ngrams))
    write_section(dump_glyph_records(ckpt.glyphs))
    for section in _float_sections(ckpt):
        arrays = [getattr(owner, attr) for owner, attr in section]
        fh.write(struct.pack("<Q", 4 * sum(x.size for x in arrays)))
        for x in arrays:
            fh.write(np.ascontiguousarray(x, "<f4"))
    write_section(text([f"epoch={ckpt.epoch}", f"step={ckpt.step}"]))


def dump_checkpoint(ckpt: Checkpoint) -> bytes:
    buf = io.BytesIO()
    _write_checkpoint(ckpt, buf)
    return buf.getvalue()


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write `ckpt` to a temporary file beside `path`, fsync it and rename
    it onto `path`. On failure the temporary file is removed and an earlier
    file at `path` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_checkpoint(ckpt, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    name = str(path)
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        head = fh.read(6)
        if len(head) < 6 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{name}: bad magic")
        (version,) = struct.unpack_from("<H", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{name}: unsupported version {version}")

        def section_size() -> int:
            raw = fh.read(8)
            if len(raw) < 8:
                raise CheckpointError(f"{name}: truncated section table")
            (size,) = struct.unpack("<Q", raw)
            if size > end - fh.tell():
                raise CheckpointError(f"{name}: truncated section payload")
            return size

        def text(what: str, parse):
            size = section_size()
            try:
                return parse(fh.read(size).decode("utf-8").splitlines())
            except (ValueError, IndexError, KeyError) as exc:
                raise CheckpointError(f"{name}: bad {what} section: "
                                      f"{type(exc).__name__}: {exc}") from exc

        config = text("config", TrainingConfig.from_lines)
        vocab = text("vocab", _parse_vocab)
        ngram_dict = text("n-gram dictionary", _parse_ngram_dict)
        try:
            glyphs = parse_glyph_records(fh.read(section_size()), f"{name}: glyph section")
        except GlyphPackError as exc:
            raise CheckpointError(str(exc)) from exc

        # Shape-only stand-ins, replaced by the arrays read below.
        d, dtype = config.dim, config.np_dtype
        rows = [np.broadcast_to(np.float32(0), (n, d))
                for n in (len(vocab), len(vocab), len(ngram_dict))]
        cnn = cnn_init(0, d)
        ckpt = Checkpoint(config, vocab, ngram_dict, glyphs, EmbeddingTables(*rows), cnn,
                          Accumulators(*rows, cnn.zeros_like()))
        for section in _float_sections(ckpt):
            size = section_size()
            want = 4 * sum(getattr(owner, attr).size for owner, attr in section)
            if size != want:
                raise CheckpointError(f"{name}: float section of {size} bytes, "
                                      f"its shapes need {want}")
            for owner, attr in section:
                arr = np.empty(getattr(owner, attr).shape, "<f4")
                if fh.readinto(arr) != arr.nbytes:
                    raise CheckpointError(f"{name}: truncated section payload")
                setattr(owner, attr, arr.astype(dtype, copy=False))

        ckpt.epoch, ckpt.step = text("counters", _parse_counters)
        if fh.tell() != end:
            raise CheckpointError(f"{name}: trailing bytes")
    return ckpt


def _parse_vocab(lines: list[str]) -> Vocab:
    words, counts = [], []
    for line in lines[1:]:
        w, _, c = line.partition("\t")
        words.append(w)
        counts.append(int(c))
    vocab = Vocab(words, np.array(counts, dtype=np.int64), int(lines[0].partition("=")[2]))
    if len(vocab.id_of) != len(words):
        raise ValueError("duplicate word")
    if (vocab.counts < 1).any():
        raise ValueError("word count below 1")
    return vocab


def _parse_ngram_dict(lines: list[str]) -> StrokeNgramDict:
    head = dict(part.split("=") for part in lines[0].split())
    n_ngrams = int(lines[1].partition("=")[2])
    ngram_ids = {tuple(int(s) for s in lines[2 + i].split(",")): i for i in range(n_ngrams)}
    if len(ngram_ids) != n_ngrams:
        raise ValueError("duplicate n-gram")
    pos = 2 + n_ngrams
    n_chars = int(lines[pos].partition("=")[2])
    per_char = {}
    for line in lines[pos + 1:pos + 1 + n_chars]:
        ch, _, ids = line.partition("\t")
        if ch in per_char:
            raise ValueError(f"duplicate character {ch!r}")
        got = per_char[ch] = [int(s) for s in ids.split(",")] if ids else []
        if len(set(got)) != len(got) or not all(0 <= i < n_ngrams for i in got):
            raise ValueError(f"character {ch!r}: n-gram ids not distinct "
                             f"or not in [0, {n_ngrams})")
    pos += 1 + n_chars
    n_skip = int(lines[pos].partition("=")[2])
    return StrokeNgramDict(ngram_ids, per_char, int(head["n_min"]), int(head["n_max"]),
                           lines[pos + 1:pos + 1 + n_skip])


def _parse_counters(lines: list[str]) -> tuple[int, int]:
    counters = dict(line.split("=") for line in lines)
    epoch, step = int(counters["epoch"]), int(counters["step"])
    if epoch < 0 or step < 0:
        raise ValueError(f"negative counter: epoch={epoch} step={step}")
    return epoch, step


def export_vectors(ckpt: Checkpoint, path, which: str = "composed") -> None:
    """word2vec text format: header 'V d', then token + 6-decimal components."""
    if which not in ("composed", "word_id"):
        raise ValueError(f"which must be 'composed' or 'word_id', got {which!r}")
    if which == "composed":
        rows = ckpt.model().compose(np.arange(len(ckpt.vocab)))
    else:
        rows = ckpt.tables.word_id_vecs
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(ckpt.vocab)} {ckpt.config.dim}\n")
        for token, vec in zip(ckpt.vocab.words, rows):
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")


def load_vectors(path) -> tuple[list[str], np.ndarray]:
    """Read the word2vec text format back; returns (tokens, matrix)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: bad vector-file header")
        v, d = int(header[0]), int(header[1])
        tokens, rows = [], []
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != d + 1:
                raise ValueError(f"{path}: row has {len(parts) - 1} values, expected {d}")
            tokens.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    if len(tokens) != v:
        raise ValueError(f"{path}: header says {v} rows, found {len(tokens)}")
    return tokens, np.array(rows, dtype=np.float64)
