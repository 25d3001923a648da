"""The per-process parse caches: parse_ring_spec keeps specs by their text
and parse_generator_map keeps images by (map text, spec).  A repeat gives
the output of a cold run, refusals are never kept, both caches stay within
their bounds, and verification still runs on every command."""

import gc
import sys

import pytest

import dansurf.expmaps
from dansurf import ioformats
from dansurf.cli import dispatch
from dansurf.ioformats import parse_generator_map, parse_ring_spec

from test_cli import GOLDEN
from test_readme import EXAMPLES

_Q2 = "R(n=2,h=1,field=Q)"
_MAP = "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2"
_CACHES = (parse_ring_spec, ioformats._map_images)
_COMMANDS = [argv for argv, *_ in GOLDEN] + [argv for argv, *_ in EXAMPLES]


def _clear():
    for cache in _CACHES:
        cache.cache_clear()


@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: argv[0])
def test_repeats_read_as_a_cold_run(argv):
    for args in (argv, argv + ["--json"]):
        _clear()
        cold = dispatch(args)
        assert dispatch(args) == cold
        assert dispatch(args) == cold
        _clear()
        assert dispatch(args) == cold


def test_a_repeat_parses_no_ring_or_map_again():
    argv = ["derive", "--ring", _Q2, "--map", _MAP, "--expr", "y", "--order", "2"]
    _clear()
    assert dispatch(argv) == (0, "x^2")
    before = [cache.cache_info() for cache in _CACHES]
    assert dispatch(argv) == (0, "x^2")
    after = [cache.cache_info() for cache in _CACHES]
    for old, new in zip(before, after):
        assert (new.hits, new.misses) == (old.hits + 1, old.misses)


def test_equal_specs_share_map_images():
    # two texts of one ring give two equal specs; the images kept for the
    # first serve the second, with the same output as a cold run
    spaced = "R(n=2, h=1, field=Q)"
    argv = ["exp-degree", "--ring", spaced, "--map", _MAP, "--expr", "y"]
    _clear()
    cold = dispatch(argv)
    _clear()
    assert parse_ring_spec(_Q2) == parse_ring_spec(spaced)
    assert parse_ring_spec(_Q2) is not parse_ring_spec(spaced)
    dispatch(["exp-degree", "--ring", _Q2, "--map", _MAP, "--expr", "y"])
    assert dispatch(argv) == cold == (0, "2")
    assert ioformats._map_images.cache_info().currsize == 1


@pytest.mark.parametrize("argv, message", [
    (["normal-form", "--ring", "R(n=2,h=1+*x,field=Q)", "--expr", "z"],
     "input error: unexpected '*' (offset 10)"),
    (["normal-form", "--ring", "R(n=2,h=1,field=F4)", "--expr", "z"],
     "input error: bad field spec 'F4': characteristic 4 is not 0 or a prime (offset 16)"),
    (["exp-verify", "--ring", _Q2, "--map", "x->x; z->z+*x; y->y"],
     "input error: unexpected '*' (offset 11)"),
    (["exp-verify", "--ring", _Q2, "--map", "x->x; x->2*x"],
     "input error: repeated image for x (offset 6)"),
])
def test_refusals_repeat_and_are_not_kept(argv, message):
    _clear()
    for _ in range(3):
        assert dispatch(argv) == (2, message)
    assert ioformats._map_images.cache_info().currsize == 0
    assert parse_ring_spec.cache_info().currsize == (argv[0] == "exp-verify")


def test_caches_stay_within_their_bounds():
    _clear()
    specs = [parse_ring_spec(f"R(n=2,h={k}+x,field=Q)") for k in range(1, 101)]
    info = parse_ring_spec.cache_info()
    assert info.maxsize is not None and info.currsize == min(100, info.maxsize) < 100
    spec = specs[0]
    for k in range(1, 101):
        parse_generator_map(f"x -> x; y -> y; z -> z + {k}*x", spec)
    info = ioformats._map_images.cache_info()
    assert info.maxsize is not None and info.currsize == min(100, info.maxsize) < 100
    # the oldest entries were dropped and are parsed afresh, equal to before
    assert parse_ring_spec("R(n=2,h=1+x,field=Q)") == spec
    assert parse_ring_spec.cache_info().misses == 101


def test_edits_to_a_returned_map_do_not_reach_the_next_parse():
    spec = parse_ring_spec(_Q2)
    first = parse_generator_map(_MAP, spec)
    kept = dict(first)
    first["x"] = first["y"]
    del first["z"]
    first["T"] = first["y"]
    second = parse_generator_map(_MAP, spec)
    assert second is not first and second == kept
    assert set(second) == {"x", "y", "z"}


def test_relation_is_formed_once_per_spec():
    spec = parse_ring_spec(_Q2)
    assert spec.relation() is spec.relation()
    assert parse_ring_spec("R(n=2,h=0,field=Q,free)").relation() is None


def test_verification_runs_on_every_dispatch(monkeypatch):
    calls = []
    original = dansurf.expmaps.verify_exponential

    def counting(phi):
        calls.append(phi)
        return original(phi)

    # rebind every dansurf name for the function, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dansurf" and vars(module).get("verify_exponential") is original:
            monkeypatch.setattr(module, "verify_exponential", counting)
    argv = ["exp-degree", "--ring", _Q2, "--map", _MAP, "--expr", "y"]
    assert dispatch(argv) == dispatch(argv) == (0, "2")
    assert len(calls) == 2
    assert calls[0] is not calls[1]


@pytest.mark.parametrize("argv", [argv for argv, *_ in GOLDEN], ids=lambda argv: argv[0])
def test_dropped_entries_leave_no_cyclic_garbage(argv):
    # what the caches keep is freed by reference counts once they drop it
    dispatch(argv + ["--json"])
    gc.collect()
    gc.disable()
    try:
        _clear()
        dispatch(argv)
        dispatch(argv + ["--json"])
        _clear()
        assert gc.collect() == 0, argv
    finally:
        gc.enable()
