"""The array kernels' bulk RNG streams, pinned against CPython.

:class:`~repro.congest.array_network.ArrayKernel` seeds the per-node
streams ``stable_rng(seed, node, proto)`` in bulk (:func:`mt_words`
re-implements MT19937's ``init_by_array``, twist and tempering over
numpy columns) and draws from them with a re-implementation of
``_randbelow``.  Both must stay bit-identical to ``random.Random`` on
every Python version the package supports, so this suite compares them
word for word and draw for draw:

* :func:`mt_words` against ``random.Random(key).getrandbits(32)`` for
  the extreme two-word keys and random ones, across chunk boundaries;
* :meth:`ArrayKernel.draw_below` against ``stable_rng(...).randrange``
  at every stream position it uses, for one- and two-word bounds with
  rejections, for a stream that runs past its banked words, for a
  stream restored from a payload and for a one-word key;
* :meth:`ArrayKernel.rng` after banked draws: the stream it hands out
  is the reference stream advanced by the same draws.
"""

import random

import networkx as nx
import numpy as np
import pytest

from repro import utils
from repro.congest import ARRAY_BACKEND, make_network
from repro.congest import array_network
from repro.congest.array_kernels import MaxISLayersKernel
from repro.congest.array_network import mt_words
from repro.core.maxis_layers import MaxISLayersProgram
from repro.utils import restore_rng, rng_state, stable_rng

SEED, PROTO = 11, 3


def kernel_over(n):
    """A bound layers kernel on a path of ``n`` nodes (any kernel
    carries the bank; the protocol does not matter here)."""

    network = make_network(nx.path_graph(n), seed=SEED, backend=ARRAY_BACKEND)
    csr = network._ensure_csr()
    kernel = MaxISLayersKernel(network, csr, MaxISLayersProgram(1),
                               {"weight": [1] * n, "trace": None})
    kernel.bind(PROTO)
    return kernel


def reference_streams(kernel):
    return [stable_rng(SEED, node, PROTO) for node in kernel.csr.nodes]


def words_used(rng):
    """The MT19937 words a fresh stream has handed out (fewer than 624)."""

    return rng.getstate()[1][-1]


@pytest.fixture
def bank_everything(monkeypatch):
    """Bank every stream, however small the batch."""

    monkeypatch.setattr(array_network, "BANK_MIN_STREAMS", 1)


class TestMtWords:
    @pytest.mark.parametrize("key", [1 << 32, (1 << 64) - 1,
                                     (1 << 32) + 1, 0xDEADBEEF << 32])
    def test_extreme_keys(self, key):
        reference = random.Random(key)
        assert mt_words([key], 16)[:, 0].tolist() == \
            [reference.getrandbits(32) for _ in range(16)]

    def test_random_keys_across_chunks(self, monkeypatch):
        monkeypatch.setattr(array_network, "BANK_CHUNK", 7)
        rng = random.Random(2024)
        keys = [rng.randrange(1 << 32, 1 << 64) for _ in range(40)]
        words = mt_words(keys, 5)
        for column, key in enumerate(keys):
            reference = random.Random(key)
            assert words[:, column].tolist() == \
                [reference.getrandbits(32) for _ in range(5)]

    def test_every_word_of_the_first_twist(self):
        key = random.Random(7).randrange(1 << 32, 1 << 64)
        reference = random.Random(key)
        assert mt_words([key], 227)[:, 0].tolist() == \
            [reference.getrandbits(32) for _ in range(227)]

    @pytest.mark.parametrize("keys,count", [
        ([1 << 40], 0), ([1 << 40], 228), ([(1 << 32) - 1], 4),
    ])
    def test_refuses_what_it_cannot_replay(self, keys, count):
        with pytest.raises(ValueError):
            mt_words(keys, count)


class TestDrawBelow:
    @pytest.mark.parametrize("bound", [
        1, 2, 3, 5, 1000, (1 << 31) + 1, 1 << 32, (1 << 32) + 1,
        (1 << 40) + 1, 2_000 ** 3,
    ])
    def test_every_position_matches_stable_rng(self, bank_everything,
                                               bound):
        kernel = kernel_over(60)
        references = reference_streams(kernel)
        everyone = np.arange(60)
        for _ in range(3):
            drawn = kernel.draw_below(everyone, bound)
            assert drawn.tolist() == [r.randrange(bound) for r in references]
            banked = kernel._stream == array_network._BANKED
            assert banked.any()
            for i in np.flatnonzero(banked).tolist():
                assert kernel._used[i] == words_used(references[i])

    def test_per_node_bounds_and_subsets(self, bank_everything):
        kernel = kernel_over(50)
        references = reference_streams(kernel)
        rng = random.Random(5)
        for _ in range(6):
            idx = sorted(rng.sample(range(50), 20))
            bounds = [rng.choice([1, 3, 17, (1 << 33) + 5]) for _ in idx]
            drawn = kernel.draw_below(np.array(idx), np.array(bounds))
            assert drawn.tolist() == [references[i].randrange(b)
                                      for i, b in zip(idx, bounds)]

    def test_a_stream_spills_past_its_banked_words(self, bank_everything):
        kernel = kernel_over(30)
        references = reference_streams(kernel)
        everyone = np.arange(30)
        bound = (1 << 40) + 1  # two words a draw, rejections likely
        for _ in range(array_network.BANK_WORDS):
            assert kernel.draw_below(everyone, bound).tolist() == \
                [r.randrange(bound) for r in references]
        assert not (kernel._stream == array_network._BANKED).any()
        assert kernel.draw_below(everyone, 7).tolist() == \
            [r.randrange(7) for r in references]

    def test_a_restored_stream_draws_from_its_payload(self, bank_everything):
        kernel = kernel_over(20)
        references = reference_streams(kernel)
        for reference in references[::2]:
            reference.random()
        for i in range(0, 20, 2):
            restore_rng(kernel.rng(i), rng_state(references[i]))
        drawn = kernel.draw_below(np.arange(20), 1000)
        assert drawn.tolist() == [r.randrange(1000) for r in references]
        stream = kernel._stream
        assert (stream[::2] == array_network._SCALAR).all()
        assert (stream[1::2] == array_network._BANKED).all()

    def test_a_one_word_key_takes_the_scalar_stream(self, bank_everything,
                                                    monkeypatch):
        original = utils.stable_seed

        def short_for_odd_nodes(seed, node, *parts):
            key = original(seed, node, *parts)
            return key & 0xFFFFFFFF if node % 2 else key

        monkeypatch.setattr(utils, "stable_seed", short_for_odd_nodes)
        monkeypatch.setattr(array_network, "stable_seed", short_for_odd_nodes)
        kernel = kernel_over(20)
        references = reference_streams(kernel)
        assert random.Random(short_for_odd_nodes(SEED, 1, PROTO)).getstate() \
            == references[1].getstate()
        drawn = kernel.draw_below(np.arange(20), 1000)
        assert drawn.tolist() == [r.randrange(1000) for r in references]
        stream = kernel._stream
        assert (stream[1::2] == array_network._SCALAR).all()
        assert (stream[::2] == array_network._BANKED).all()

    def test_small_batches_stay_scalar(self):
        kernel = kernel_over(20)
        references = reference_streams(kernel)
        assert kernel.draw_below(np.arange(20), 9).tolist() == \
            [r.randrange(9) for r in references]
        assert (kernel._stream == array_network._SCALAR).all()

    def test_refuses_bounds_it_cannot_draw(self):
        kernel = kernel_over(4)
        for bound in (0, array_network.MAX_EXACT_INT):
            with pytest.raises(ValueError):
                kernel.draw_below(np.arange(4), bound)


def test_rng_leaves_the_bank_where_the_draws_left_off(bank_everything):
    kernel = kernel_over(40)
    references = reference_streams(kernel)
    everyone = np.arange(40)
    for bound in (3, (1 << 45) + 1, 3):
        kernel.draw_below(everyone, bound)
        for reference in references:
            reference.randrange(bound)
    for i, reference in enumerate(references):
        assert kernel.rng(i).getstate() == reference.getstate()
    assert (kernel._stream == array_network._SCALAR).all()
