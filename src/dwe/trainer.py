"""Training orchestration: epochs, batching, adagrad state, checkpoints.

A batch is `batch_size` (center, context) pairs; gradients are
accumulated over the batch and applied once (mini-batch adagrad).
A sentence's negatives are drawn with the key (run seed, sentence
index), and every epoch visits the sentences in the same order, so
every epoch scores the same pairs against the same negatives and
per-epoch mean losses are comparable. One epoch loop serves both modes:
`run_workers` hands the batches of one stream to the workers, and each
applies its own updates. Deterministic mode has one worker, the calling
thread, and is bit-reproducible for a fixed seed. Hogwild mode has
`threads` workers that update embedding rows without a lock; it trains
without the glyph channel, so the CNN only ever has one writer.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import mmap
import os
import struct
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .corpus import NegativeSampler, Vocab, build_vocab, context_pairs, read_sentences
from .glyph_cnn import CnnParams, cnn_init, cnn_shapes
from .model import (ADAGRAD_EPS, DweModel, EmbeddingTables, adagrad_step,
                    adagrad_step_rows, init_tables)
from .morphology import (GlyphPackError, StrokeNgramDict, build_ngram_dict,
                         check_ngram_labels, cjk_chars, decimal_fields, dump_glyph_records,
                         load_glyph_pack, load_stroke_table, parse_glyph_records)
from .workers import run_workers

CHECKPOINT_MAGIC = b"DWE1"
CHECKPOINT_VERSION = 1
VECTOR_SOURCES = ("composed", "word_id")  # `which` of export_vectors and Evaluator


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
    use_ngrams: bool = True
    use_glyphs: bool = True
    subsample: float = 0.0  # 0 disables frequent-word subsampling

    def validate(self) -> None:
        if self.dim < 1 or self.batch_size < 1 or self.window < 1:
            raise ValueError("dim, batch_size, window must be positive")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode == "deterministic" and self.threads > 1:
            raise ValueError("deterministic mode trains one thread; use hogwild for more")

    def to_lines(self) -> list[str]:
        # Training is float32 with a fixed Adagrad eps; v1 files keep both lines.
        return sorted([f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
                      + ["dtype=float32", f"eps={ADAGRAD_EPS}"])

    @classmethod
    def from_lines(cls, lines: list[str]) -> "TrainingConfig":
        """The config the `key=value` lines give its fields; other lines are
        ignored (`load_checkpoint` compares them with `to_lines`)."""
        values = dict(line.split("=", 1) for line in lines)
        config = cls()
        for f in fields(cls):
            val, kind = values[f.name], type(getattr(config, f.name))
            setattr(config, f.name, val == "True" if kind is bool else kind(val))
        config.validate()
        return config


@dataclass
class Checkpoint:
    """A model and its training state; `accum` and `cnn_accum` hold the
    Adagrad accumulators of `tables` and `cnn`, array for array."""
    config: TrainingConfig
    vocab: Vocab
    ngram_dict: StrokeNgramDict
    glyphs: dict[str, np.ndarray]
    tables: EmbeddingTables
    cnn: CnnParams
    accum: EmbeddingTables
    cnn_accum: CnnParams
    epoch: int = 0
    step: int = 0
    # per-epoch mean objective from the most recent training run; in-memory
    # only, not serialized
    epoch_mean_losses: list[float] = field(default_factory=list)

    def model(self) -> DweModel:
        return DweModel(self.vocab, self.ngram_dict, self.glyphs, self.tables,
                        self.cnn, self.config.use_ngrams, self.config.use_glyphs)


def _check_hogwild(config: TrainingConfig) -> None:
    """Hogwild mode refuses the glyph channel (README "CLI" says why): its
    workers would race on the CNN's one buffer set and its updates."""
    if config.mode == "hogwild" and config.use_glyphs:
        raise ValueError("hogwild mode trains without the glyph channel; add --no-glyphs")


def _check_resumable(old: TrainingConfig, new: TrainingConfig) -> None:
    for key in ("dim", "n_min", "n_max", "use_ngrams", "use_glyphs"):
        if getattr(old, key) != getattr(new, key):
            raise ConfigMismatchError(
                f"checkpoint has {key}={getattr(old, key)}, requested {getattr(new, key)}")


def init_checkpoint(vocab: Vocab, ngram_dict: StrokeNgramDict,
                    glyphs: dict[str, np.ndarray], config: TrainingConfig) -> Checkpoint:
    config.validate()
    tables = init_tables(len(vocab), len(ngram_dict), config.dim, config.seed)
    cnn = cnn_init(config.seed + 1, config.dim)
    return Checkpoint(config, vocab, ngram_dict, glyphs, tables, cnn,
                      tables.zeros_like(), cnn.zeros_like())


def apply_grads(ckpt: Checkpoint, grads, lr: float) -> None:
    """Adagrad, in place, on the touched embedding rows and on the CNN."""
    t, a = ckpt.tables, ckpt.accum
    adagrad_step_rows(t.word_id_vecs, a.word_id_vecs, grads.word_id_ids, grads.word_id_rows, lr)
    adagrad_step_rows(t.context_vecs, a.context_vecs, grads.context_ids, grads.context_rows, lr)
    adagrad_step_rows(t.ngram_vecs, a.ngram_vecs, grads.ngram_ids, grads.ngram_rows, lr)
    if grads.cnn is not None:
        for (_, p), (_, g), (_, acc) in zip(ckpt.cnn.tensors(), grads.cnn.tensors(),
                                            ckpt.cnn_accum.tensors()):
            adagrad_step(p, g, acc, lr)


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
    """One epoch on `threads` workers (`run_workers`), each applying its
    own gradients; returns the summed loss and the number of pairs."""
    cfg = ckpt.config
    lock = threading.Lock()  # for the totals and ckpt.step
    totals = [0.0, 0]

    def step(batch) -> None:
        loss, grads = model.batch_loss_and_grads(*batch)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch={ckpt.epoch} step={ckpt.step}")
        apply_grads(ckpt, grads, cfg.lr)
        with lock:
            totals[0] += loss
            totals[1] += len(batch[0])
            ckpt.step += 1

    run_workers(_epoch_batches(sentences, cfg, sampler, keep_prob), step, cfg.threads,
                "dwe-hogwild")
    return totals[0], totals[1]


def train(corpus_path, stroke_table_path, glyph_pack_path,
          config: TrainingConfig, resume=None, log=sys.stderr) -> Checkpoint:
    """Train a new checkpoint, or resume the checkpoint file `resume` with its
    own vocabulary, n-gram dictionary and glyphs, so that a resumed run reads
    the corpus only. The config is checked before any input is read, and the
    file is left unchanged. Hogwild mode refuses the glyph channel (README
    "CLI" says why)."""
    config.validate()
    _check_hogwild(config)
    if resume is not None:
        ckpt = load_checkpoint(resume)
        _check_resumable(ckpt.config, config)
        ckpt.config = config
        return train_checkpoint(ckpt, corpus_path, log=log)
    tokens = (tok for sent in read_sentences(corpus_path) for tok in sent)
    vocab = build_vocab(tokens, config.min_count)
    stroke_table = load_stroke_table(stroke_table_path)
    glyph_table = load_glyph_pack(glyph_pack_path)
    chars = cjk_chars(vocab.words)
    ngram_dict = build_ngram_dict(stroke_table, chars, config.n_min, config.n_max)
    glyphs = {c: glyph_table[c] for c in chars if c in glyph_table}
    if log is not None:
        for lacking, what in ((len(chars) - len(ngram_dict.per_char), "stroke data"),
                              (len(chars) - len(glyphs), "glyphs (zero bitmap)")):
            if lacking:
                print(f"warning: {lacking} characters lack {what}", file=log)
    return train_checkpoint(init_checkpoint(vocab, ngram_dict, glyphs, config),
                            corpus_path, log=log)


def train_checkpoint(ckpt: Checkpoint, corpus_path, log=sys.stderr) -> Checkpoint:
    """Run ckpt.config.epochs over the corpus, mutating ckpt in place.
    Hogwild mode with the glyph channel is refused before the corpus is
    read."""
    cfg = ckpt.config
    _check_hogwild(cfg)
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
# and the epoch and step counters. A text section is defined by its writer
# (`TrainingConfig.to_lines`, `_vocab_lines`, `_ngram_dict_lines` or
# `_counter_lines`): the reader accepts only the bytes it would write.

def _text(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _vocab_lines(vocab: Vocab) -> list[str]:
    return [f"total_tokens={vocab.total_tokens}",
            *(f"{w}\t{int(c)}" for w, c in zip(vocab.words, vocab.counts))]


def _ngram_dict_lines(nd: StrokeNgramDict, config: TrainingConfig, chars: list[str]) -> list[str]:
    """`chars` is the registry; its characters without `per_char` ids are skipped."""
    skipped = [c for c in chars if c not in nd.per_char]
    return [f"n_min={config.n_min} n_max={config.n_max}", f"ngrams={len(nd)}", *nd.ngrams,
            f"chars={len(nd.per_char)}",
            *_id_lines(nd.per_char),
            f"skipped={len(skipped)}", *skipped]


def _id_lines(per_char: dict[str, list[int]]) -> list[str]:
    """`CHAR<TAB>ids` for each character in sorted order, the ids joined
    by commas, as `f"{c}\t{','.join(map(str, ids))}"` writes it. The ids of
    ID_BLOCK lines at a time go into a grid of fixed-width uint8 fields,
    digits right-aligned after zeros and a comma or newline last, and the
    text is the grid's non-zero bytes, as `_write_rows` builds a row."""
    chars = sorted(per_char)
    lines = []
    for lo in range(0, len(chars), ID_BLOCK):
        lists = [per_char[c] for c in chars[lo:lo + ID_BLOCK]]
        counts = np.array([len(ids) for ids in lists])
        ids = np.fromiter(itertools.chain.from_iterable(lists), np.int64, int(counts.sum()))
        digits = len(str(int(ids.max(initial=0))))
        grid = np.zeros((len(ids), digits + 1), np.uint8)
        grid[:, -1] = ord(",")
        grid[np.cumsum(counts[counts > 0]) - 1, -1] = ord("\n")  # a line's last id
        rest = ids
        for k in range(digits):  # from the units up, no leading zeros
            rest, digit = np.divmod(rest, 10)
            place = grid[:, digits - 1 - k]
            np.add(digit, ord("0"), out=place, casting="unsafe")
            if k:
                place[ids < 10 ** k] = 0
        joined = iter(grid.tobytes().translate(None, b"\0").decode().split("\n"))
        lines += (f"{c}\t{next(joined) if n else ''}"
                  for c, n in zip(chars[lo:lo + ID_BLOCK], counts.tolist()))
    return lines


def _counter_lines(counters: tuple[int, int]) -> list[str]:
    return [f"epoch={counters[0]}", f"step={counters[1]}"]


def _float_sections(ckpt: Checkpoint) -> list[list[tuple[object, str]]]:
    """The tables, CNN and accumulator sections as (owner, field) lists in file
    order: fields in declared order, the tables' accumulators before the CNN's."""
    return [[(g, f.name) for g in groups for f in fields(g)]
            for groups in ((ckpt.tables,), (ckpt.cnn,), (ckpt.accum, ckpt.cnn_accum))]


def _write_checkpoint(ckpt: Checkpoint, fh) -> None:
    """Write `ckpt` to fh. Glyphs or n-gram dictionary entries of characters
    outside the vocab's registry, which `load_checkpoint` would refuse,
    raise ValueError before any byte is written."""
    chars = cjk_chars(ckpt.vocab.words)
    registry = set(chars)
    for what, held in (("glyphs", ckpt.glyphs), ("n-gram dictionary", ckpt.ngram_dict.per_char)):
        stray = sorted(held.keys() - registry)
        if stray:
            raise ValueError(f"{what} of {len(stray)} characters outside the vocab's "
                             f"registry, such as {stray[0]!r}")

    def write_section(payload: bytes) -> None:
        fh.write(struct.pack("<Q", len(payload)) + payload)

    fh.write(CHECKPOINT_MAGIC + struct.pack("<H", CHECKPOINT_VERSION))
    write_section(_text(ckpt.config.to_lines()))
    write_section(_text(_vocab_lines(ckpt.vocab)))
    write_section(_text(_ngram_dict_lines(ckpt.ngram_dict, ckpt.config, chars)))
    write_section(dump_glyph_records(ckpt.glyphs))
    for section in _float_sections(ckpt):
        arrays = [getattr(owner, attr) for owner, attr in section]
        fh.write(struct.pack("<Q", 4 * sum(x.size for x in arrays)))
        for x in arrays:
            fh.write(np.ascontiguousarray(x, "<f4"))
    write_section(_text(_counter_lines((ckpt.epoch, ckpt.step))))


def dump_checkpoint(ckpt: Checkpoint) -> bytes:
    buf = io.BytesIO()
    _write_checkpoint(ckpt, buf)
    return buf.getvalue()


@contextlib.contextmanager
def _replacing(path):
    """A binary file that replaces `path` when the block exits cleanly: it
    is a temporary file beside `path`, fsynced and renamed onto it. On
    failure the temporary file is removed and an earlier file at `path`
    is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write `ckpt` to `path` through `_replacing`: a failed save leaves an
    earlier file at `path` as it was."""
    with _replacing(path) as fh:
        _write_checkpoint(ckpt, fh)


def load_checkpoint(path) -> Checkpoint:
    """Read the checkpoint at `path`; a malformed file is a CheckpointError.

    The file is mapped copy-on-write (`mmap.ACCESS_COPY`) and each array of
    `tables` and `accum` is a view of the mapping, so pages no one reads
    (the context table and the accumulators, in evaluation and export) are
    never brought into memory. Training may write every array; the file
    stays unchanged. The arrays of `cnn` and `cnn_accum` are copied out:
    v1 float payloads start at arbitrary byte offsets, so a view is in
    general not 4-byte aligned, and numpy computes on unaligned operands by
    other paths with other rounding, which made a resumed run's CNN differ
    from an uninterrupted run's. The embedding rows are only gathered,
    scattered and updated elementwise, which keeps their bits either way.
    Replace a loaded file only by rename, as `save_checkpoint` does:
    truncating it in place can crash the process that maps it (SIGBUS)."""
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

        def read_payload() -> bytes:
            return fh.read(section_size())

        def text(what: str, payload: bytes, parse, lines_of):
            try:
                decoded = parse(payload.decode("utf-8").splitlines())
            except (ValueError, IndexError, KeyError, OverflowError) as exc:
                raise CheckpointError(f"{name}: bad {what} section: "
                                      f"{type(exc).__name__}: {exc}") from exc
            if _text(lines_of(decoded)) != payload:
                raise CheckpointError(f"{name}: bad {what} section: not as its writer writes it")
            return decoded

        # A float64 run's v1 file differs only in this line: its tables are `<f4` too.
        config = text("config", read_payload().replace(b"\ndtype=float64\n", b"\ndtype=float32\n"),
                      TrainingConfig.from_lines, TrainingConfig.to_lines)
        vocab = text("vocab", read_payload(), _parse_vocab, _vocab_lines)
        chars = cjk_chars(vocab.words)
        ngram_dict = text("n-gram dictionary", read_payload(),
                          lambda lines: _parse_ngram_dict(lines, config, chars),
                          lambda nd: _ngram_dict_lines(nd, config, chars))
        try:
            glyphs = parse_glyph_records(read_payload(), f"{name}: glyph section")
        except GlyphPackError as exc:
            raise CheckpointError(str(exc)) from exc
        if list(glyphs) != sorted(glyphs):
            raise CheckpointError(f"{name}: glyph section: codepoints not in ascending order")
        if not glyphs.keys() <= set(chars):
            raise CheckpointError(f"{name}: glyph section: a character is not a CJK "
                                  "character of the vocab")

        # Zero-stride stand-ins that carry only shapes: each array is taken
        # from the mapping, below, after its section's size is checked
        # against the file.
        d = config.dim
        if 4 * d > end:
            raise CheckpointError(f"{name}: dim={d} is larger than the file can hold")
        tables = EmbeddingTables(*(np.broadcast_to(np.float32(0), (n, d))
                                   for n in (len(vocab), len(vocab), len(ngram_dict))))
        cnn = CnnParams(*(np.broadcast_to(np.float32(0), s) for s in cnn_shapes(d)))
        ckpt = Checkpoint(config, vocab, ngram_dict, glyphs, tables, cnn,
                          replace(tables), replace(cnn))
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        for section in _float_sections(ckpt):
            size = section_size()
            want = 4 * sum(getattr(owner, attr).size for owner, attr in section)
            if size != want:
                raise CheckpointError(f"{name}: float section of {size} bytes, "
                                      f"its shapes need {want}")
            for owner, attr in section:
                like = getattr(owner, attr)
                arr = np.frombuffer(mapped, "<f4", like.size, fh.tell()).reshape(like.shape)
                setattr(owner, attr, arr.copy() if isinstance(owner, CnnParams) else arr)
                fh.seek(arr.nbytes, os.SEEK_CUR)

        ckpt.epoch, ckpt.step = text("counters", read_payload(), _parse_counters, _counter_lines)
        if fh.tell() != end:
            raise CheckpointError(f"{name}: trailing bytes")
    return ckpt


def _parse_vocab(lines: list[str]) -> Vocab:
    words, counts = [], []
    for line in lines[1:]:
        w, _, c = line.partition("\t")
        if w.split() != [w]:  # `read_sentences` never yields such a token
            raise ValueError(f"word {w!r} is empty or holds whitespace")
        words.append(w)
        counts.append(int(c))
    vocab = Vocab(words, np.array(counts, dtype=np.int64), int(lines[0].partition("=")[2]))
    if len(vocab.id_of) != len(words):
        raise ValueError("duplicate word")
    if (vocab.counts < 1).any():
        raise ValueError("word count below 1")
    if vocab.total_tokens < vocab.counts.sum():
        raise ValueError(f"total_tokens={vocab.total_tokens} is below the sum of the counts")
    return vocab


# lines per `_ngram_ids` call and per `_id_lines` grid; as `morphology.LABEL_BLOCK`,
# for peak memory
ID_BLOCK = 256


def _parse_ngram_dict(lines: list[str], config: TrainingConfig,
                      chars: list[str]) -> StrokeNgramDict:
    """The n-gram dictionary of the section's lines, checked by array
    passes over blocks of lines instead of per-label and per-id calls: the
    labels by `check_ngram_labels`, the `CHAR<TAB>ids` lines by
    `_ngram_ids`. `text` compares the writer's bytes, which rejects every
    form the writer never gives (leading zeros, an empty id)."""
    n_ngrams = int(lines[1].partition("=")[2])
    ngrams = lines[2:2 + n_ngrams]
    check_ngram_labels(ngrams, config.n_min, config.n_max)
    if len(set(ngrams)) != n_ngrams:
        raise ValueError(f"expected {n_ngrams} distinct n-grams")
    pos = 2 + n_ngrams
    n_chars = int(lines[pos].partition("=")[2])
    keyed = [line.partition("\t") for line in lines[pos + 1:pos + 1 + n_chars]]
    per_char = {}
    for lo in range(0, len(keyed), ID_BLOCK):
        block = keyed[lo:lo + ID_BLOCK]
        per_char.update(zip([ch for ch, _, _ in block], _ngram_ids(block, n_ngrams)))
    if not per_char.keys() <= set(chars):
        raise ValueError("a character is not a CJK character of the vocab")
    return StrokeNgramDict(ngrams, per_char)


def _ngram_ids(keyed: list[tuple[str, str, str]], n_ngrams: int) -> list[list[int]]:
    """The ids of each partitioned `CHAR<TAB>ids` line, read from the
    lines' joined bytes (`decimal_fields`): each id's value is summed by
    decimal place, one comparison checks the range and one sort of
    (line, id) keys finds an id repeated within a line. A list must be
    distinct ids in [0, n_ngrams); the first character whose list is not
    is named in the ValueError."""
    data, ends, lengths, line_end = decimal_fields([ids for _, _, ids in keyed])
    line = np.cumsum(line_end) - line_end  # the line of each field
    # an empty line is a character without n-grams; the writer compare
    # rejects every other empty field
    held = lengths > 0
    ends, lengths, line = ends[held], lengths[held], line[held]
    # each id's last 18 digits, which fit an int64; a longer id is never
    # written, so the writer compare rejects it
    values = np.zeros(len(ends), np.int64)
    for k in range(min(int(lengths.max(initial=0)), 18)):
        place = (data[ends - 1 - k] - ord("0")).astype(np.int64)
        place[lengths <= k] = 0
        values += place * 10 ** k
    # an id out of range may take the key of a later line's id, but the
    # range check names its own, earlier line
    keys = np.sort(line * (n_ngrams + 1) + values)
    repeats = keys[1:][keys[1:] == keys[:-1]] // (n_ngrams + 1)
    bad = np.concatenate([line[values >= n_ngrams][:1], repeats[:1]])
    if bad.size:
        raise ValueError(f"character {keyed[bad.min()][0]!r}: n-gram ids not distinct "
                         f"or not in [0, {n_ngrams})")
    ids = values.tolist()
    bounds = np.searchsorted(line, np.arange(len(keyed) + 1)).tolist()
    return [ids[a:b] for a, b in zip(bounds, bounds[1:])]


def _parse_counters(lines: list[str]) -> tuple[int, int]:
    epoch, step = (int(line.partition("=")[2]) for line in lines)
    if epoch < 0 or step < 0:
        raise ValueError(f"negative counter: epoch={epoch} step={step}")
    return epoch, step


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The digit strings "00" .. "99" and "0000" .. "9999", each as the
    native uint16 or uint32 of its ASCII bytes. The quads are built from
    the pairs, so no temporary exceeds a few KB: a bytes object per
    entry, or an int64 array per digit, leaves hundreds of KB resident."""
    pairs = (np.arange(100)[:, None] // np.array([10, 1]) % 10 + ord("0")).astype(np.uint8)
    quads = np.empty((100, 100, 4), np.uint8)
    quads[..., :2] = pairs[:, None]
    quads[..., 2:] = pairs
    return pairs.view(np.uint16).ravel(), quads.view(np.uint32).ravel()


_DIGIT_PAIRS, _DIGIT_QUADS = _digit_tables()
FORMAT_BLOCK = 256  # rows per block of _write_rows
FORMAT_LIMIT = 1e12  # |x| below which _write_rows formats x with numpy


def _write_rows(fh, tokens: list[str], rows: np.ndarray) -> None:
    """Write each token and its row to the binary file fh as
    `"%s" + " %.6f" * d + "\n"` formats them, in UTF-8.

    A float32 row whose components are all finite and below FORMAT_LIMIT
    in magnitude is formatted by numpy, FORMAT_BLOCK rows at a time. A
    float32 times 1e6 is exact in float64 (24 + 14 significand bits), so
    np.rint(|x| * 1e6) is the correctly rounded, ties-to-even integer that
    '%.6f' prints. Its digits, the signs, spaces and points go into a
    grid of fixed-width uint8 fields, zero where a field is shorter, and
    the text is the grid's non-zero bytes. Every other row takes the
    format string."""
    d = rows.shape[1]
    fmt = "%s" + " %.6f" * d + "\n"
    for lo in range(0, len(rows), FORMAT_BLOCK):
        block = rows[lo:lo + FORMAT_BLOCK]
        with np.errstate(invalid="ignore"):  # a signalling nan's cast
            x = np.abs(block, dtype=np.float64)
            fits = x < FORMAT_LIMIT  # false for nan and inf
        by_numpy = fits.all(axis=1) & (rows.dtype == np.float32)
        np.copyto(x, 0.0, where=~fits)
        x *= 1e6
        whole, frac = np.divmod(np.rint(x, out=x).astype(np.int64), 1_000_000)
        digits = len(str(int(whole.max(initial=0))))
        # a field: zeros, " ", sign, integer digits, ".", six digits; its
        # width is a multiple of 4, so the last four digits are one uint32
        w = -(-(digits + 9) // 4) * 4
        grid = np.zeros((len(block), d + 1, w), np.uint8)
        grid[:, d, -1] = ord("\n")  # a last field per row ends it
        cells = grid[:, :d]
        cells[..., w - digits - 9] = ord(" ")
        np.multiply(np.signbit(block), np.uint8(ord("-")), out=cells[..., w - digits - 8])
        rest = whole
        for k in range(digits):  # from the units up, no leading zeros
            rest, digit = np.divmod(rest, 10)
            place = cells[..., w - 8 - k]
            np.add(digit, ord("0"), out=place, casting="unsafe")
            if k:
                place[whole < 10 ** k] = 0
        cells[..., w - 7] = ord(".")
        high, low = np.divmod(frac, 10_000)
        cells.view(np.uint16)[..., (w - 6) // 2] = _DIGIT_PAIRS[high]
        cells.view(np.uint32)[..., (w - 4) // 4] = _DIGIT_QUADS[low]
        lines = grid.tobytes().translate(None, b"\0").split(b"\n")
        for token, row, line, numpy_line in zip(tokens[lo:lo + FORMAT_BLOCK], block, lines,
                                                by_numpy):
            fh.write(token.encode() + line + b"\n" if numpy_line
                     else (fmt % (token, *row.tolist())).encode())


def export_vectors(ckpt: Checkpoint, path, which: str = "composed") -> None:
    """word2vec text format: header 'V d', then token + 6-decimal components;
    composed rows are float32, built from `char_features` as `Evaluator`
    builds them. The file replaces `path` only when it is complete
    (`_replacing`)."""
    if which not in VECTOR_SOURCES:
        raise ValueError(f"which must be one of {VECTOR_SOURCES}, got {which!r}")
    if which == "composed":
        m = ckpt.model()
        rows = m.compose(np.arange(len(ckpt.vocab)), m.char_features())
    else:
        rows = ckpt.tables.word_id_vecs
    with _replacing(path) as fh:
        fh.write(f"{len(ckpt.vocab)} {ckpt.config.dim}\n".encode())
        _write_rows(fh, ckpt.vocab.words, rows)
