import types
import sys

from spans import SpanRecorder, self_time_by_name, self_times


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "id": None}


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("root", 0.0, 10.0, None),
        span("child", 1.0, 4.0, 0),
        span("grandchild", 2.0, 3.0, 1),
        span("child", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert self_time_by_name(spans) == {"root": 6.0, "child": 3.0,
                                        "grandchild": 1.0}


def test_self_times_add_up_to_the_root():
    spans = [span("root", 0.0, 7.5, None), span("a", 0.5, 2.0, 0),
             span("b", 2.0, 5.0, 0), span("c", 3.0, 4.0, 2)]
    assert sum(self_times(spans)) == 7.5


def test_wrapped_calls_nest_share_ids_and_restore(monkeypatch):
    module = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    recorder = SpanRecorder()
    recorder.wrap("fake_layer:outer", "outer",
                  shared_id=lambda x: f"job{x}",
                  attrs=lambda result, x: {"result": result})
    recorder.wrap("fake_layer:inner", "inner")
    assert module.outer(3) == 8
    recorder.restore()
    assert module.outer is outer and module.inner is inner

    first, second = recorder.spans
    assert (first["name"], first["parent"], first["id"]) == ("outer", None, "job3")
    assert (second["name"], second["parent"], second["id"]) == ("inner", 0, "job3")
    assert first["result"] == 8
    assert first["start"] <= second["start"] <= second["end"] <= first["end"]


def test_unless_inside_skips_nested_calls(monkeypatch):
    module = types.ModuleType("fake_engine")
    module.step = lambda: 1
    module.run = lambda: module.step()
    monkeypatch.setitem(sys.modules, "fake_engine", module)
    recorder = SpanRecorder()
    recorder.wrap("fake_engine:run", "sim.run")
    recorder.wrap("fake_engine:step", "core.step", unless_inside="sim.")
    module.run()
    module.step()
    recorder.restore()
    assert [s["name"] for s in recorder.spans] == ["sim.run", "core.step"]
    assert recorder.spans[1]["parent"] is None
