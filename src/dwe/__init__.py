"""Dual-channel Chinese word embeddings: stroke n-grams + glyph CNN."""

from .corpus import NegativeSampler, Vocab, build_vocab, context_pairs
from .evaluation import Evaluator, spearman_rho
from .glyph_cnn import CnnParams, cnn_backward_batch, cnn_forward_batch, cnn_init
from .model import DweModel, EmbeddingTables, adagrad_step, init_tables
from .morphology import (StrokeNgramDict, build_ngram_dict, extract_ngrams,
                         is_cjk, load_glyph_pack, load_stroke_table)
from .trainer import (Checkpoint, TrainingConfig, export_vectors,
                      load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"
