"""Tests for workload generators and connectors."""

import os

import pytest

from repro.connectors import (
    TransactionalCsvFileSink,
    TransactionalJsonlFileSink,
    TransactionalTextFileSink,
    csv_records,
    jsonl_records,
    text_file_lines,
    throttled,
)
from repro.datagen import (
    AdStreamGenerator,
    BurstyArrivals,
    ClickstreamGenerator,
    DocumentStreamGenerator,
    PoissonArrivals,
    RatingStreamGenerator,
    UniformArrivals,
    ZipfSampler,
    noisy_waves,
    random_walk,
    spiky_series,
)


class TestArrivals:
    def test_uniform_rate(self):
        timestamps = list(UniformArrivals(100).timestamps(101))
        assert timestamps[0] == 0
        assert timestamps[-1] == 1000  # 100/s over 100 gaps = 1s

    def test_poisson_reproducible_and_monotonic(self):
        a = list(PoissonArrivals(50, seed=1).timestamps(500))
        b = list(PoissonArrivals(50, seed=1).timestamps(500))
        assert a == b
        assert all(x <= y for x, y in zip(a, a[1:]))

    def test_poisson_mean_rate(self):
        timestamps = list(PoissonArrivals(100, seed=2).timestamps(5000))
        duration_s = (timestamps[-1] - timestamps[0]) / 1000.0
        assert 5000 / duration_s == pytest.approx(100, rel=0.1)

    def test_bursty_has_rate_variation(self):
        timestamps = list(BurstyArrivals(10, 1000, period_ms=10_000)
                          .timestamps(2000))
        gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
        assert min(gaps) < 10 and max(gaps) > 20

    def test_zipf_skew(self):
        sampler = ZipfSampler(1000, exponent=1.2, seed=1)
        samples = sampler.sample_many(10000)
        top_key_share = samples.count(0) / len(samples)
        assert top_key_share > 0.05  # hottest key dominates


class TestTimeseries:
    def test_random_walk_bounded_and_seeded(self):
        a = random_walk(500, clamp=(-10, 10), seed=3)
        b = random_walk(500, clamp=(-10, 10), seed=3)
        assert a == b
        assert all(-10 <= value <= 10 for _, value in a)

    def test_noisy_waves_covers_range(self):
        points = noisy_waves(1000)
        assert min(v for _, v in points) < -30
        assert max(v for _, v in points) > 30

    def test_spiky_series_has_spikes(self):
        points = spiky_series(2000, seed=1)
        assert any(abs(value) > 50 for _, value in points)
        assert sum(1 for _, value in points if abs(value) > 50) < 200

    def test_validation(self):
        with pytest.raises(ValueError):
            random_walk(0)


class TestClickstream:
    def test_events_sorted_and_reproducible(self):
        generator = ClickstreamGenerator(num_users=20, days=10, seed=5)
        events_a = generator.events()
        events_b = ClickstreamGenerator(num_users=20, days=10,
                                        seed=5).events()
        assert events_a == events_b
        timestamps = [event.timestamp for event in events_a]
        assert timestamps == sorted(timestamps)

    def test_labeled_examples_have_both_classes(self):
        generator = ClickstreamGenerator(num_users=100, days=30,
                                         churn_fraction=0.4, seed=6)
        examples = generator.labeled_examples()
        labels = {example.label for example in examples}
        assert labels == {0, 1}

    def test_churn_signal_is_learnable(self):
        from repro.ml import OnlineLogisticRegression, PrequentialEvaluator
        generator = ClickstreamGenerator(num_users=400, days=30,
                                         churn_fraction=0.35, seed=7)
        examples = generator.labeled_examples()
        model = OnlineLogisticRegression(learning_rate=0.1)
        evaluator = PrequentialEvaluator()
        for _ in range(3):  # a few passes amplify the small sample
            for example in examples:
                evaluator.record(example.label,
                                 model.update(example.features,
                                              example.label))
        from repro.ml import auc
        n = len(examples)
        assert auc(evaluator.labels[-n:], evaluator.scores[-n:]) > 0.7

    def test_invalid_window_rejected(self):
        generator = ClickstreamGenerator(days=10)
        with pytest.raises(ValueError):
            generator.labeled_examples(observation_days=8,
                                       churn_horizon_days=7)


class TestAds:
    def test_reproducible(self):
        a = list(AdStreamGenerator(seed=1).impressions(100))
        b = list(AdStreamGenerator(seed=1).impressions(100))
        assert a == b

    def test_ctr_in_realistic_range(self):
        impressions = list(AdStreamGenerator(seed=2).impressions(5000))
        ctr = sum(i.clicked for i in impressions) / len(impressions)
        assert 0.005 < ctr < 0.4

    def test_bayes_bound_is_high(self):
        assert AdStreamGenerator(seed=3).bayes_auc_bound() > 0.75

    def test_features_shape(self):
        impression = next(iter(AdStreamGenerator(seed=4).impressions(1)))
        features = impression.features()
        assert "bias" in features
        assert any(f.startswith("segxcamp=") for f in features)


class TestRatings:
    def test_values_in_range(self):
        for rating in RatingStreamGenerator(seed=1).ratings(500):
            assert 1.0 <= rating.value <= 5.0

    def test_latent_structure_present(self):
        generator = RatingStreamGenerator(num_users=30, num_items=30,
                                          noise=0.0, seed=2)
        # With zero noise, repeated (user, item) pairs rate identically.
        seen = {}
        for rating in generator.ratings(5000):
            key = (rating.user, rating.item)
            if key in seen:
                assert seen[key] == pytest.approx(rating.value)
            seen[key] = rating.value


class TestDocs:
    def test_labels_match_languages(self):
        generator = DocumentStreamGenerator(seed=1)
        for document in generator.documents(50):
            assert document.language in generator.languages
            assert document.text

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError):
            DocumentStreamGenerator(languages=["klingon"])


def publish(sink, values):
    """Drive ``sink`` the way a job without checkpoints does: one
    transaction, published at end of input."""
    sink.open()
    for value in values:
        sink.write(value)
    sink.flush_final()
    return sink.records_committed


class TestConnectors:
    def test_text_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "lines.txt")
        sink = TransactionalTextFileSink(path)
        assert publish(sink, ["alpha", "beta"]) == 2
        assert list(text_file_lines(path)()) == ["alpha", "beta"]

    def test_text_source_is_replayable(self, tmp_path):
        path = str(tmp_path / "lines.txt")
        publish(TransactionalTextFileSink(path), ["one"])
        factory = text_file_lines(path)
        assert list(factory()) == list(factory()) == ["one"]

    def test_csv_roundtrip_with_types(self, tmp_path):
        path = str(tmp_path / "data.csv")
        publish(TransactionalCsvFileSink(path, header=["name", "score"]),
                [["a", 1], ["b", 2]])
        rows = list(csv_records(path, types={"score": int})())
        assert rows == [{"name": "a", "score": 1}, {"name": "b", "score": 2}]

    def test_csv_sink_validates_width(self, tmp_path):
        sink = TransactionalCsvFileSink(str(tmp_path / "x.csv"),
                                        header=["a", "b"])
        with pytest.raises(ValueError):
            sink.write(["only-one"])

    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        publish(TransactionalJsonlFileSink(path), [{"k": 1}, {"k": 2}])
        assert list(jsonl_records(path)()) == [{"k": 1}, {"k": 2}]

    def test_throttled_pairs_values_with_arrivals(self):
        factory = throttled(lambda: iter(["a", "b", "c"]),
                            UniformArrivals(1000).timestamps(3))
        assert list(factory()) == [("a", 0), ("b", 1), ("c", 2)]

    def test_file_source_through_engine(self, tmp_path):
        from repro.api import Environment
        path = str(tmp_path / "words.txt")
        publish(TransactionalTextFileSink(path), ["to be or", "not to be"])
        env = Environment()
        result = (env.from_source(text_file_lines(path))
                  .flat_map(str.split)
                  .key_by(lambda w: w)
                  .count()
                  .collect())
        env.execute()
        finals = {}
        for word, count in result.get():
            finals[word] = count
        assert finals["to"] == 2 and finals["be"] == 2


class TestConnectorErrorPaths:
    """Connector failures must name the path (and line) so a dead-letter
    queue entry or a stack trace is actionable on its own."""

    def test_missing_file_names_path(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        for factory in (text_file_lines(missing), csv_records(missing),
                        jsonl_records(missing)):
            with pytest.raises(FileNotFoundError, match="nope.txt"):
                next(iter(factory()))

    def test_malformed_jsonl_names_path_and_line(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        with open(path, "w") as handle:
            handle.write('{"ok": 1}\n{not json}\n')
        with pytest.raises(ValueError, match=r"data\.jsonl:2"):
            list(jsonl_records(path)())

    def test_csv_width_mismatch_names_path_and_line(self, tmp_path):
        path = str(tmp_path / "data.csv")
        with open(path, "w") as handle:
            handle.write("a,b\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match=r"data\.csv:3"):
            list(csv_records(path)())

    def test_csv_type_conversion_failure_names_path_and_line(self, tmp_path):
        path = str(tmp_path / "data.csv")
        with open(path, "w") as handle:
            handle.write("score\nten\n")
        with pytest.raises(ValueError, match=r"data\.csv:2"):
            list(csv_records(path, types={"score": int})())

    def test_file_sinks_close_atomically(self, tmp_path):
        path = str(tmp_path / "out.txt")
        publish(TransactionalTextFileSink(path), ["line"])
        assert not os.path.exists(path + ".tmp")
        with open(path) as handle:
            assert handle.read() == "line\n"
