"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest bench -q`` (the tier-1 suite
collects ``tests/`` only).
"""

from __future__ import annotations

import argparse
import json
import sys

import pytest

import compare
import spans as spanlib
import worker
import workloads as W


def _callable(value) -> bool:
    return callable(value) or isinstance(value, (staticmethod, classmethod))


def _repro_attributes():
    """Every callable ``(owner, name, value)`` of loaded ``repro`` modules
    and their classes."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if not _callable(value):
                continue
            out.append((mod, attr, value))
            if isinstance(value, type) and value.__module__.startswith("repro"):
                out += [(value, a, v) for a, v in list(vars(value).items())
                        if _callable(v)]
    return out


def _is_wrapper(value) -> bool:
    fn = getattr(value, "__func__", value)
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == spanlib.__file__


def _assert_untouched(before) -> None:
    for owner, attr, value in before:
        assert vars(owner).get(attr) is value, (owner, attr)
        assert not _is_wrapper(vars(owner).get(attr)), (owner, attr)


def test_install_patches_every_alias_and_uninstall_restores_them():
    import repro.heatmap.cli as heat_cli
    import repro.heatmap.html as html
    import repro.instrument as front_end
    import repro.instrument.parser as parser
    from repro.runtime.tracer import Tracer

    original = html.build_report
    assert heat_cli.build_report is original
    before = _repro_attributes()
    rec = spanlib.Spans().install()
    try:
        assert html.build_report is not original
        assert heat_cli.build_report is html.build_report
        assert front_end.parse is parser.parse and _is_wrapper(parser.parse)
        assert _is_wrapper(vars(Tracer)["traceR"])
        with pytest.raises(RuntimeError):
            rec.install()
    finally:
        rec.uninstall()
    _assert_untouched(before)


def test_untraced_run_leaves_every_callable_identical(tmp_path):
    args = argparse.Namespace(workload="minicuda", seed=0, mode="timed",
                              seconds=0.0, work=str(tmp_path / "w1"),
                              result=None, spans=None)
    worker.Worker(args).run()  # imports everything the workload touches
    before = _repro_attributes()
    args.work = str(tmp_path / "w2")
    result = worker.Worker(args).run()
    assert "digest" in result["iterations"][0]
    _assert_untouched(before)


class _Clock:
    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t


def test_self_time_is_duration_minus_children():
    clock = _Clock()
    rec = spanlib.Spans(clock=clock)
    w = {}

    def leaf():
        clock.t += 5

    def mid():
        clock.t += 2
        w["leaf"]()
        clock.t += 3
        w["leaf"]()

    def top():
        clock.t += 1
        w["mid"]()
        clock.t += 4

    def boom():
        clock.t += 7
        raise ValueError("x")

    w["leaf"] = rec.wrap(leaf, "repro.memsim.fake", "leaf")
    w["mid"] = rec.wrap(mid, "repro.cudart.fake", "Fake.mid")
    w["top"] = rec.wrap(top, "repro.workloads.fake", "top")
    w["top"]()
    with pytest.raises(ValueError):
        rec.wrap(boom, "repro.runtime.fake", "boom")()

    assert rec.self_ns == {"repro.memsim.fake:leaf": 10,
                           "repro.cudart.fake:Fake.mid": 5,
                           "repro.workloads.fake:top": 5,
                           "repro.runtime.fake:boom": 7}
    assert rec.incl_ns["repro.workloads.fake:top"] == 20
    assert rec.covered_ns[0] == 27 == sum(rec.self_ns.values())
    totals = rec.layer_totals()
    assert totals["memsim"] == {"self_s": 10e-9, "calls": 2}
    assert totals["cudart"]["calls"] == 1
    assert totals["interp"] == {"self_s": 0.0, "calls": 0}
    events = rec.chrome_events(1, "fake")
    assert {e["args"]["name"] for e in events if e["ph"] == "M"} >= {
        "fake", *spanlib.LAYERS}
    assert sum(e["ph"] == "X" for e in events) == 5


def test_wrapper_looks_like_the_wrapped_module_to_stack_walkers():
    rec = spanlib.Spans()

    def probe():
        return sys._getframe(1)

    a = rec.wrap(probe, "repro.cudart.api", "CudaRuntime.probe")
    b = rec.wrap(probe, "repro.workloads.fake", "probe")
    fa, fb = a(), b()
    assert fa.f_globals["__name__"] == "repro.cudart.api"
    assert fb.f_globals["__name__"] == "repro.workloads.fake"
    assert fa.f_code is not fb.f_code
    assert a.__name__ == "probe" and a.__wrapped__ is probe


def test_launch_runs_the_kernel_under_its_own_layer_and_keeps_its_name():
    rec = spanlib.Spans()
    seen = {}

    def launch(rt, kernel, grid, block, *args, name=None):
        seen["name"] = name or getattr(kernel, "__name__", "kernel")
        kernel("ctx", *args)

    def my_kernel(ctx, x):
        seen["arg"] = x

    my_kernel.__module__ = "repro.workloads.fake"
    wrapped = rec.wrap(launch, "repro.cudart.api", "CudaRuntime.launch",
                       launch=True)
    wrapped("rt", my_kernel, 1, 1, 42)
    assert seen == {"name": "my_kernel", "arg": 42}
    assert rec.calls["repro.workloads.fake:<kernel>"] == 1
    assert rec.calls["repro.cudart.api:CudaRuntime.launch"] == 1


def _bundle(root, tag: str) -> W.Iteration:
    (root / "merged").mkdir(parents=True)
    (root / "merged" / "heat.csv").write_text(f"alloc,{root}/x\n")
    events = [{"type": "manifest", "config": {"merged_from": [str(root)]},
               "tag": tag},
              {"type": "alloc", "label": "a", "bytes": 64},
              {"type": "epoch", "epoch": 0, "tag": tag},
              {"bytes": 8, "type": "kernel", "name": "k"}]
    (root / "merged" / "events.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in events))
    (root / "merged" / "manifest.json").write_text(str(root))
    return W.Iteration([f"wrote {root}/report.html"], f"see {root}\n")


def test_digest_replaces_the_output_path(tmp_path):
    short, long = tmp_path / "a", tmp_path / "a-much-longer-directory"
    d1, n1 = W.digest(short, _bundle(short, "one"))
    d2, n2 = W.digest(long, _bundle(long, "two"))
    assert d1 == d2  # paths, manifests and epoch markers do not count
    assert n1 < n2   # bytes count files as written (manifest.json holds a path)
    (long / "merged" / "events.jsonl").write_text(
        json.dumps({"type": "kernel", "name": "other"}) + "\n")
    texts = [f"wrote {long}/report.html"]
    assert W.digest(long, W.Iteration(texts, ""))[0] != d2


def _results(values: dict[str, float], calib: float = 1.0, failed: int = 0):
    return {"workloads": {"w": {"metrics": values, "calib_s": [calib, calib],
                                "failed": failed}}}


SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def _pairs(parent, change, **kw):
    return [(_results({"wall_s": p, "rate": p}),
             _results({"wall_s": c, "rate": c}, **kw))
            for p, c in zip(parent, change)]


JITTER = [0.0, 0.01, -0.01, 0.005, -0.005, 0.002, -0.002, 0.008, -0.008, 0.0]


def test_compare_verdicts():
    base = [1.0 + j for j in JITTER]
    faster = [0.8 + j for j in JITTER]
    slower = [1.25 + j for j in JITTER]
    noisy = [1.0 + 3 * j * 10 for j in JITTER]

    rows = compare.compare(_pairs(base, faster), SPEC, {("w", "wall_s")})
    assert rows["w"]["metrics"]["wall_s"]["verdict"] == "improved"
    # Lower is worse for a rate: the same numbers regress it.
    assert rows["w"]["metrics"]["rate"]["verdict"] == "regressed"

    rows = compare.compare(_pairs(base, base[::-1]), SPEC)
    assert rows["w"]["metrics"]["wall_s"]["verdict"] == "unchanged"
    rows = compare.compare(_pairs(base, slower), SPEC)
    assert rows["w"]["metrics"]["wall_s"]["verdict"] == "regressed"
    rows = compare.compare(_pairs(base, noisy), SPEC, {("w", "wall_s")})
    assert rows["w"]["metrics"]["wall_s"]["verdict"] == "unresolved"
    # A claim that does not win 9 of 10 pairs is not improved.
    mixed = faster[:8] + [1.2, 1.2]
    rows = compare.compare(_pairs(base, mixed), SPEC, {("w", "wall_s")})
    assert rows["w"]["metrics"]["wall_s"]["verdict"] != "improved"


def test_compare_flags_calibration_and_counts_failures():
    base = [1.0 + j for j in JITTER]
    rows = compare.compare(_pairs(base, base, calib=1.5, failed=1), SPEC)
    assert rows["w"]["flagged"] == len(base)
    assert rows["w"]["metrics"]["error_rate"]["verdict"] == "regressed"


def test_compare_cli_needs_ten_pairs(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_results({"wall_s": 1.0, "rate": 1.0})))
    with pytest.raises(SystemExit):
        compare.main([str(path)] * 18)
    assert "ten parent/change pairs" in capsys.readouterr().err


def test_minicuda_programs_depend_only_on_the_seed():
    assert W.minicuda_programs(3) == W.minicuda_programs(3)
    a, b = W.minicuda_programs(3), W.minicuda_programs(4)
    assert a.keys() == b.keys() and a != b

