"""Tests for the labeled metrics registry and its Prometheus exposition."""

import math

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("faults_total", "fault groups")
        c.inc()
        c.inc(2)
        assert c.value() == 3.0

    def test_labeled_series_are_independent(self):
        c = Counter("pages_total")
        c.inc(4, proc="GPU")
        c.inc(1, proc="CPU")
        assert c.value(proc="GPU") == 4.0
        assert c.value(proc="CPU") == 1.0
        assert c.value(proc="TPU") == 0.0

    def test_negative_increment_rejected(self):
        c = Counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
    def test_non_finite_increment_rejected(self, amount):
        c = Counter("x_total")
        c.inc(1)
        with pytest.raises(ValueError):
            c.inc(amount)
        assert c.value() == 1.0

    def test_label_order_does_not_matter(self):
        c = Counter("x_total")
        c.inc(1, a="1", b="2")
        c.inc(1, b="2", a="1")
        c.inc(1, a="1", b="2")
        assert c.value(b="2", a="1") == 3.0
        assert list(c.series()) == [(("a", "1"), ("b", "2"))]


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("pages_in_use")
        g.set(10)
        g.inc(-3)
        assert g.value() == 7.0


class TestHistogram:
    def test_buckets_are_cumulative_in_exposition(self):
        h = Histogram("lat_seconds", buckets=(0.001, 0.1, math.inf))
        h.observe(0.0005)
        h.observe(0.05)
        h.observe(5.0)
        text = "\n".join(h.expose())
        assert 'lat_seconds_bucket{le="0.001"} 1' in text
        assert 'lat_seconds_bucket{le="0.1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text

    def test_sum_tracks_observations(self):
        h = Histogram("s_seconds", buckets=(1.0,))
        h.observe(0.25)
        h.observe(0.5)
        assert "s_seconds_sum 0.75" in "\n".join(h.expose())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_rejected(self, value):
        # A NaN falls in no bucket: `_count` would outrun the +Inf bucket.
        h = Histogram("t_seconds", buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.observe(value)
        text = "\n".join(h.expose())
        assert 't_seconds_bucket{le="+Inf"} 1' in text
        assert "t_seconds_count 1" in text
        assert "t_seconds_sum 0.5" in text

    def test_inf_bucket_always_present(self):
        h = Histogram("t_seconds", buckets=(1.0, 2.0))
        assert h.bounds[-1] == math.inf


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("faults_total")
        b = reg.counter("faults_total")
        assert a is b
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_prefix_applied(self):
        reg = MetricsRegistry("xplacer_")
        reg.counter("faults_total").inc(1)
        assert "faults_total" in reg
        assert "xplacer_faults_total 1" in reg.to_prometheus()

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("1bad")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(2, proc="GPU")
        reg.gauge("b").set(1.5)
        snap = reg.snapshot()
        assert snap["a_total"] == {'{proc="GPU"}': 2.0}
        assert snap["b"] == {"": 1.5}

    def test_exposition_has_help_and_type_lines(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "things").inc(1)
        reg.histogram("h_seconds").observe(0.01)
        text = reg.to_prometheus()
        assert "# HELP a_total things" in text
        assert "# TYPE a_total counter" in text
        assert "# TYPE h_seconds histogram" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(1, k='say "hi"\n')
        assert r'{k="say \"hi\"\n"}' in reg.to_prometheus()

    def test_help_escaping(self):
        # Exposition format: HELP values escape backslash and newline.
        reg = MetricsRegistry()
        reg.counter("a_total", "path C:\\tmp\nsecond line").inc(1)
        text = reg.to_prometheus()
        assert r"# HELP a_total path C:\\tmp\nsecond line" in text
        # No raw newline may split the HELP line in two.
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        assert help_lines == [r"# HELP a_total path C:\\tmp\nsecond line"]

    def test_histogram_help_escaping(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", "a\\b\nc").observe(0.1)
        assert r"# HELP h_seconds a\\b\nc" in reg.to_prometheus()


class TestLabelSemantics:
    """Series identity is the sorted ``str()`` of every label pair."""

    def test_int_and_str_values_merge(self):
        c = Counter("x_total")
        c.inc(1, k=1)
        c.inc(1, k="1")
        c.inc(1, k=1)
        assert c.series() == {(("k", "1"),): 3.0}

    @pytest.mark.parametrize("first", ["1", 1, True, 1.0])
    def test_equal_hashing_values_stay_apart(self, first):
        # 1 == True == 1.0 hash alike, but str() tells them apart.
        c = Counter("x_total")
        c.inc(1, k=first)
        for value in ("1", True, 1.0, True, 1.0, "1"):
            c.inc(1, k=value)
        series = c.series()
        assert set(series) == {(("k", "1"),), (("k", "True"),),
                               (("k", "1.0"),)}
        assert sum(series.values()) == 7.0
        assert series[(("k", str(first)),)] == 3.0

    def test_exposition_matches_sorted_str_labels(self):
        reg = MetricsRegistry("x_")
        c = reg.counter("hits_total", "hits")
        c.inc(1, a="1", b="2")
        c.inc(2, b="2", a="1")
        for value in (1, "1", True, 1.0, 1):
            c.inc(1, k=value)
        c.inc(5)
        g = reg.gauge("level")
        g.set(3, proc="GPU")
        g.set(4, proc="GPU")
        g.inc(1, n=2)
        g.inc(1, n="2")
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05, k=True)
        h.observe(0.5, k="True")
        h.observe(2.0, k=1)
        assert reg.to_prometheus() == """\
# HELP x_hits_total hits
# TYPE x_hits_total counter
x_hits_total 5
x_hits_total{a="1",b="2"} 3
x_hits_total{k="1"} 3
x_hits_total{k="1.0"} 1
x_hits_total{k="True"} 1
# HELP x_lat_seconds x_lat_seconds
# TYPE x_lat_seconds histogram
x_lat_seconds_bucket{k="1",le="0.1"} 0
x_lat_seconds_bucket{k="1",le="1"} 0
x_lat_seconds_bucket{k="1",le="+Inf"} 1
x_lat_seconds_sum{k="1"} 2
x_lat_seconds_count{k="1"} 1
x_lat_seconds_bucket{k="True",le="0.1"} 1
x_lat_seconds_bucket{k="True",le="1"} 2
x_lat_seconds_bucket{k="True",le="+Inf"} 2
x_lat_seconds_sum{k="True"} 0.55
x_lat_seconds_count{k="True"} 2
# HELP x_level x_level
# TYPE x_level gauge
x_level{n="2"} 2
x_level{proc="GPU"} 4
"""
