"""Allocation guards on the corpus path, traced with tracemalloc.

Every corpus byte should be held once from generation to minibatch.  On the
2600-signal corpus (208000 samples, 6.35 MiB) each step is held to a bound:

* build_ode_dataset peaks at no more than 1.8 times its output: the signal
  and label blocks plus the one sample block it fills;
* save_samples allocates less than 1 MiB beyond its input, which it writes
  from its own buffer;
* load_samples peaks at no more than the file size plus 1 MiB, the one
  buffer it reads the file into;
* train allocates less than 5 MiB beyond the corpus it is given, and no
  more for three epochs than for one: every minibatch and validation block
  is gathered from the corpus by index into one batch's buffers, its index
  arrays are int32, and the epoch order is shuffled in place.  The two
  epoch counts are traced in a fresh interpreter: between them, train's
  peaks can differ by some 40 bytes of CPython list, tuple and frame
  objects, depending on the free-list state that earlier tests leave;
* backward on a float32 batch through a float32 workspace allocates less
  than 48 KiB (36.6 KiB measured on a 640-row batch): the batch is not
  upcast, which would add a 20 KiB float64 batch and a 1 MiB float64
  layer-0 product;
* adam_step allocates less than 1 KiB: its intermediates live in the
  AdamState;
* train's minibatch gather and cast allocate less than 1 KiB: the rows are
  gathered into the float32 workspace's float64 staging block and cast
  after;
* train's validation loss over the held-out rows of the corpus allocates
  its (n_val,) float64 error vector and less than 4 KiB besides, traced at a
  small numpy buffer size: every block is gathered and cast as a minibatch
  is, and runs through the same float32 workspace.

tracemalloc counts only what is allocated while it runs, numpy's array data
included, so each peak excludes the arguments handed in.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cawave import datasets as ds
from cawave import surrogate_net as sn

KIB, MIB = 2**10, 2**20
SIGNALS, SEED = 2600, 11


def traced_peak(fn, *args, **kwargs):
    """(fn's result, peak bytes allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def corpus():
    return ds.build_ode_dataset(num_signals=SIGNALS, seed=SEED)


@pytest.fixture(scope="module")
def corpus_file(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "ode_dataset.cwds"
    ds.save_samples(path, corpus)
    return path


def test_build_ode_dataset_peak(corpus):
    samples, peak = traced_peak(ds.build_ode_dataset, num_signals=SIGNALS, seed=SEED)
    assert np.array_equal(samples, corpus)
    assert peak <= 1.8 * samples.nbytes, peak / samples.nbytes


def test_save_samples_writes_from_its_input(corpus, tmp_path):
    _, peak = traced_peak(ds.save_samples, tmp_path / "s.cwds", corpus)
    assert peak < MIB, peak / MIB


def test_load_samples_reads_into_one_buffer(corpus, corpus_file):
    loaded, peak = traced_peak(ds.load_samples, corpus_file)
    assert np.array_equal(loaded, corpus)
    assert peak <= corpus_file.stat().st_size + MIB, peak / MIB


def test_training_epoch_does_not_copy_the_corpus(corpus):
    _, peak = traced_peak(sn.train, corpus, epochs=1, seed=SEED)
    assert peak < 5 * MIB, peak / MIB


# train's peak for 1 and then 3 epochs on the corpus file argv[1], one a line
TRAIN_PEAKS = f"""
import sys
import tracemalloc
import numpy.random  # numpy loads it on first use; untraced, not 0.75 MiB of the first peak
from cawave import datasets, surrogate_net
corpus = datasets.load_samples(sys.argv[1])
for epochs in (1, 3):
    tracemalloc.start()
    surrogate_net.train(corpus, epochs=epochs, seed={SEED})
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_training_peak_does_not_grow_with_epochs(corpus_file):
    # the one-epoch run goes first, so any first-call allocation counts
    # against it; only the two (epochs,) loss histories may grow
    proc = subprocess.run(
        [sys.executable, "-c", TRAIN_PEAKS, str(corpus_file)],
        capture_output=True, text=True, check=True,
    )
    one, three = map(int, proc.stdout.split())
    assert three <= one + 2 * 8 * (3 - 1), (one, three)


def test_float32_backward_allocates_almost_nothing(corpus):
    params = sn.init_network(seed=SEED)
    float32 = sn.NetworkParams._wrap(params.theta.astype(np.float32))
    work = sn._Workspace(640, np.float32)
    work.batch[...] = corpus[:640]
    (_, grads), peak = traced_peak(sn.backward, float32, work.batch, work)
    assert grads.theta.dtype == np.float32
    assert peak < 48 * KIB, peak / KIB


def test_adam_step_allocates_nothing():
    # the moments, the update and the finiteness check run in the state's own
    # buffers; what is left is a few Python floats (104 bytes measured)
    params = sn.init_network(seed=SEED)
    gradient = np.random.default_rng(SEED).normal(0.0, 1e-3, sn.PARAMETER_COUNT)
    grads = sn.NetworkParams._wrap(gradient)
    state = sn.init_adam(1e-3)
    _, peak = traced_peak(sn.adam_step, params, grads, state)
    assert state.step == 1
    assert peak < KIB, peak


def test_minibatch_gather_and_cast_allocate_almost_nothing(corpus):
    # train's gather: int32 rows through the intp index buffer, into the
    # float32 workspace's float64 staging block, then cast into its batch
    # (320 bytes measured; a take that casts as it writes would allocate
    # 25.8 KiB)
    rows = np.random.default_rng(SEED).permutation(corpus.shape[0])[:640].astype(np.int32)
    work = sn._Workspace(640, np.float32)
    batch, peak = traced_peak(sn._gather, corpus, rows, work)
    assert batch.dtype == np.float32
    assert np.array_equal(batch, corpus[rows].astype(np.float32))
    assert peak < KIB, peak


def test_validation_loss_allocates_only_its_error_vector(corpus):
    # train's validation pass: the listed rows run through the float32
    # workspace a block at a time, so what is left is the (n_val,) float64
    # error vector and a few views and iterators (2.7 KiB measured).  numpy's
    # buffered ufuncs hold up to getbufsize() elements of scratch for a
    # broadcast operation (33 KiB for a bias add), which would hide a take
    # that casts as it writes (19 KiB a block), so the loss is traced at a
    # 16-element buffer size
    params32 = sn.NetworkParams._wrap(sn.init_network(seed=SEED).theta.astype(np.float32))
    _, val_idx = sn.validation_split(corpus.shape[0], 0.1, np.random.default_rng(SEED))
    work = sn._Workspace(640, np.float32)
    expected = sn.loss(params32, corpus, val_idx, work)  # first-call caches, untraced
    default = np.setbufsize(16)
    try:
        value, peak = traced_peak(sn.loss, params32, corpus, val_idx, work)
    finally:
        np.setbufsize(default)
    assert value == expected
    assert peak < 8 * val_idx.size + 4 * KIB, (peak - 8 * val_idx.size) / KIB
