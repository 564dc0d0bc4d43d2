"""Unit tests for traces and the Phase-1 profiler."""

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.models.registry import build_model
from repro.profiling.profiler import (
    DEFAULT_CNN_PATTERNS,
    benchmark_suite,
    profile_model,
)
from repro.profiling.trace import TraceSet, load_traceset_csv
from repro.sparsity.patterns import DENSE


def make_traceset(n=4, layers=3):
    rng = np.random.default_rng(0)
    return TraceSet(
        model_name="toy",
        pattern_key="dense",
        dataset="unit",
        latencies=rng.uniform(0.001, 0.01, (n, layers)),
        sparsities=rng.uniform(0.1, 0.9, (n, layers)),
    )


class TestTraceSet:
    def test_basic_stats(self):
        trace = make_traceset()
        assert trace.num_samples == 4
        assert trace.num_layers == 3
        assert trace.key == "toy/dense"
        np.testing.assert_allclose(
            trace.isolated_latencies, trace.latencies.sum(axis=1)
        )
        assert trace.avg_total_latency == pytest.approx(
            trace.isolated_latencies.mean()
        )
        np.testing.assert_allclose(
            trace.network_sparsities, trace.sparsities.mean(axis=1)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ProfilingError):
            TraceSet("m", "p", "d", np.ones((2, 3)), np.ones((2, 4)) * 0.5)

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ProfilingError, match="positive"):
            TraceSet("m", "p", "d", np.zeros((1, 2)), np.zeros((1, 2)))

    def test_sparsity_out_of_range_rejected(self):
        with pytest.raises(ProfilingError):
            TraceSet("m", "p", "d", np.ones((1, 2)), np.ones((1, 2)) * 1.5)

    # NaN fails every comparison, so range checks written as "reject if
    # below/above" let it through.
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_latency_rejected(self, bad):
        lat = np.array([[0.1, bad]])
        with pytest.raises(ProfilingError, match="positive and finite"):
            TraceSet("m", "p", "d", lat, np.full((1, 2), 0.5))

    def test_nan_sparsity_rejected(self):
        sp = np.array([[0.5, np.nan]])
        with pytest.raises(ProfilingError, match=r"in \[0, 1\] and not NaN"):
            TraceSet("m", "p", "d", np.full((1, 2), 0.1), sp)

    def test_csv_with_nan_latency_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        make_traceset().save_csv(path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = "nan"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProfilingError, match="finite"):
            load_traceset_csv(path)

    def test_row_isolated_latency_adds_left_to_right(self):
        trace = make_traceset(n=6, layers=40)
        for row in range(trace.num_samples):
            total = 0.0
            for lat in trace.latencies[row].tolist():
                total += lat
            assert trace.isolated_latency(row) == total

    def test_layer_names_length_checked(self):
        with pytest.raises(ProfilingError, match="layer_names"):
            TraceSet("m", "p", "d", np.ones((1, 2)), np.ones((1, 2)) * 0.5,
                     layer_names=("a",))

    def test_csv_roundtrip(self, tmp_path):
        trace = make_traceset()
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        loaded = load_traceset_csv(path)
        assert loaded.model_name == trace.model_name
        assert loaded.pattern_key == trace.pattern_key
        assert loaded.dataset == trace.dataset
        np.testing.assert_allclose(loaded.latencies, trace.latencies)
        np.testing.assert_allclose(loaded.sparsities, trace.sparsities)

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("model,pattern,dataset,sample,layer,latency_s,sparsity\n")
        with pytest.raises(ProfilingError, match="empty"):
            load_traceset_csv(path)


class TestProfiler:
    def test_profile_deterministic_per_seed(self):
        model = build_model("mobilenet")
        a = profile_model(model, DEFAULT_CNN_PATTERNS[0], n_samples=20, seed=3)
        b = profile_model(model, DEFAULT_CNN_PATTERNS[0], n_samples=20, seed=3)
        np.testing.assert_array_equal(a.latencies, b.latencies)
        c = profile_model(model, DEFAULT_CNN_PATTERNS[0], n_samples=20, seed=4)
        assert not np.array_equal(a.latencies, c.latencies)

    def test_profile_shapes(self):
        model = build_model("bert")
        trace = profile_model(model, DENSE, n_samples=10, seed=0)
        assert trace.latencies.shape == (10, model.num_layers)
        assert trace.layer_names == tuple(l.name for l in model.layers)

    def test_vision_mixture_label(self):
        model = build_model("resnet50")
        trace = profile_model(model, DEFAULT_CNN_PATTERNS[0], n_samples=5, seed=0)
        assert "lowlight" in trace.dataset

    def test_no_mixture_option(self):
        model = build_model("resnet50")
        trace = profile_model(
            model, DEFAULT_CNN_PATTERNS[0], n_samples=5, seed=0, use_vision_mixture=False
        )
        assert trace.dataset == "imagenet"

    def test_invalid_sample_count(self):
        with pytest.raises(ProfilingError):
            profile_model(build_model("mobilenet"), DENSE, n_samples=0)

    def test_benchmark_suite_cnn_keys(self):
        suite = benchmark_suite("cnn", n_samples=10, seed=0)
        # 4 CNNs x 3 patterns.
        assert len(suite) == 12
        assert "resnet50/random0.80" in suite
        assert "vgg16/nm2:8" in suite
        assert "ssd/channel0.60" in suite

    def test_benchmark_suite_attnn_keys(self):
        suite = benchmark_suite("attnn", n_samples=10, seed=0)
        assert set(suite) == {"bert/dense", "gpt2/dense", "bart/dense"}

    def test_benchmark_suite_cached(self):
        a = benchmark_suite("attnn", n_samples=10, seed=0)
        b = benchmark_suite("attnn", n_samples=10, seed=0)
        assert a is b

    def test_language_models_show_fig2_spread(self):
        # Per-sample isolated latency of BERT must vary substantially.
        suite = benchmark_suite("attnn", n_samples=300, seed=0)
        iso = suite["bert/dense"].isolated_latencies
        normalized = iso / iso.mean()
        assert normalized.min() < 0.85
        assert normalized.max() > 1.15
