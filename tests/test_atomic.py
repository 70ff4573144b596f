"""Every whole-file writer goes through atomic.replacing: a writer that fails
midway leaves the previous file as it was and no temporary file behind."""

import numpy as np
import pytest

from pddiag.atomic import replacing
from pddiag.cli import write_predictions
from pddiag.cohort import write_manifest
from pddiag.training import ModelParams, OptimState, save_checkpoint_atomic, write_loss_trace


def failing_checkpoint(path):
    params = ModelParams.init(2, seed=0)
    # the optimizer arrays come last: the metadata and every parameter are
    # written before converting a text array to float64 raises
    text = [np.array(["x"])] * len(params.params())
    optim = OptimState(m=text, v=text, step=0, base_lr=1.0, weight_decay=0.0, total_steps=1)
    save_checkpoint_atomic(params, optim, path)


# each writer writes its header, then fails on a row that is not a record
WRITERS = {
    "predictions": lambda path: write_predictions([object()], path),
    "manifest": lambda path: write_manifest([object()], path),
    "loss-trace": lambda path: write_loss_trace([object()], path),
    "checkpoint": failing_checkpoint,
}


class TestReplacing:
    def test_success_replaces_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with replacing(target) as tmp, open(tmp, "w") as fh:
            fh.write("new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
    def test_failing_writer_leaves_previous_file(self, tmp_path, writer):
        target = tmp_path / "out"
        target.write_bytes(b"previous contents\n")
        with pytest.raises((AttributeError, ValueError)):
            writer(target)
        assert target.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
    def test_failing_writer_creates_no_file(self, tmp_path, writer):
        with pytest.raises((AttributeError, ValueError)):
            writer(tmp_path / "out")
        assert list(tmp_path.iterdir()) == []
