"""The compilation-unit DAG: split, content hashes, delta compile, link.

The contract under test is byte-exactness: whatever mix of cache hits,
evictions and corrupted entries the unit tier serves, the relinked
module must equal a monolithic ``compile_program`` of the same lowered
program — the incremental path may only ever be *faster*, never
different.
"""

import copy

import pytest

from repro.codegen import generator_by_name
from repro.compiler import (LinkError, OptLevel, compile_program,
                            compile_program_incremental, link_units,
                            split_units)
from repro.compiler.frontend.lower import lower_unit
from repro.compiler.units import compile_one_unit, unit_fingerprint
from repro.engine.backends import DiskBackend
from repro.engine.cache import CompileCache
from repro.vm.image import assemble

PATTERNS = ("nested-switch", "flat-switch", "state-table", "state-pattern")


def lowered(machine, pattern):
    return lower_unit(generator_by_name(pattern).generate(machine))


def compiled_bytes(result):
    image = assemble(result.module, target=result.target)
    return bytes(image.text), sorted(image.initial_memory.items())


class TestByteIdentity:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_incremental_equals_monolithic(self, flat_machine, pattern,
                                           any_target):
        mono = compile_program(lowered(flat_machine, pattern),
                               OptLevel.OS, target=any_target)
        inc = compile_program_incremental(lowered(flat_machine, pattern),
                                          OptLevel.OS, target=any_target,
                                          extra_key=pattern)
        assert inc.module.listing() == mono.module.listing()
        assert inc.pass_stats == mono.pass_stats
        assert compiled_bytes(inc) == compiled_bytes(mono)

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_every_level(self, hierarchical_machine, level):
        program_a = lowered(hierarchical_machine, "state-pattern")
        program_b = lowered(hierarchical_machine, "state-pattern")
        mono = compile_program(program_a, level)
        inc = compile_program_incremental(program_b, level,
                                          extra_key="state-pattern")
        assert inc.module.listing() == mono.module.listing()
        assert inc.pass_stats == mono.pass_stats

    def test_warm_cache_is_still_identical(self, flat_machine):
        cache = CompileCache()
        cold = compile_program_incremental(
            lowered(flat_machine, "state-table"), unit_cache=cache)
        cache.reset_stats()
        warm = compile_program_incremental(
            lowered(flat_machine, "state-table"), unit_cache=cache)
        assert cache.stats.misses == 0 and cache.stats.hits > 0
        assert warm.module.listing() == cold.module.listing()

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_unit_compiles_leave_the_program_untouched(
            self, hierarchical_machine, pattern):
        """Each unit compiles clones of its closure: the passes and the
        inliner (which rewrites every closure member it calls from)
        must not reach the program the other units compile from."""
        program = lowered(hierarchical_machine, pattern)
        before = program.dump()
        for unit in split_units(program, OptLevel.OS,
                                extra_key=pattern).units:
            compile_one_unit(program, unit, OptLevel.OS)
        assert program.dump() == before


class TestSharedMiddleEnd:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_middle_end_key_is_content_not_name(self, hierarchical_machine,
                                                pattern):
        """``compile_program`` mutates its program in place; a later
        compile of the same object for the other target must run the
        middle end on what the program now holds."""
        program = lowered(hierarchical_machine, pattern)
        compile_program_incremental(program, target="rt32",
                                    extra_key=pattern)
        compile_program(program, target="rt32")
        shared = compile_program_incremental(program, target="rt16",
                                             extra_key=pattern)

        separate = lowered(hierarchical_machine, pattern)
        compile_program(separate, target="rt32")
        expected = compile_program(separate, target="rt16")
        assert shared.module.listing() == expected.module.listing()
        assert shared.pass_stats == expected.pass_stats
        assert compiled_bytes(shared) == compiled_bytes(expected)


class TestUnitHashes:
    def test_target_is_part_of_the_hash(self, flat_machine):
        """rt32 and rt16 units must never collide in a shared cache —
        a 16-bit artifact served to a 32-bit link is silent corruption."""
        program = lowered(flat_machine, "state-table")
        plan32 = split_units(program, OptLevel.OS, target="rt32")
        plan16 = split_units(program, OptLevel.OS, target="rt16")
        fps32 = {u.fingerprint for u in plan32.units}
        fps16 = {u.fingerprint for u in plan16.units}
        assert not fps32 & fps16

    def test_shared_cache_across_targets_stays_correct(self, flat_machine):
        """Both targets through ONE unit cache: each link gets its own
        target's artifacts and matches its monolithic compile."""
        cache = CompileCache()
        for target in ("rt32", "rt16", "rt32", "rt16"):
            inc = compile_program_incremental(
                lowered(flat_machine, "state-table"), OptLevel.OS,
                target=target, unit_cache=cache)
            mono = compile_program(lowered(flat_machine, "state-table"),
                                   OptLevel.OS, target=target)
            assert compiled_bytes(inc) == compiled_bytes(mono), target

    def test_level_pattern_and_schema_key_differ(self, flat_machine):
        program = lowered(flat_machine, "nested-switch")
        plan = split_units(program, OptLevel.OS, target="rt32",
                           extra_key="nested-switch")
        unit = plan.units[0]
        dumps = {name: str(fn) for name, fn in program.functions.items()}
        base = unit_fingerprint(unit.name, unit.closure, dumps,
                                OptLevel.OS, plan.target, "nested-switch")
        assert base == unit.fingerprint
        assert base != unit_fingerprint(unit.name, unit.closure, dumps,
                                        OptLevel.O2, plan.target,
                                        "nested-switch")
        assert base != unit_fingerprint(unit.name, unit.closure, dumps,
                                        OptLevel.OS, plan.target, "other")


class TestLinkEdgeCases:
    def test_missing_artifact_is_a_link_error(self, flat_machine):
        program = lowered(flat_machine, "nested-switch")
        plan = split_units(program, OptLevel.OS, target="rt32")
        artifacts = {u.name: compile_one_unit(program, u, OptLevel.OS,
                                              "rt32")
                     for u in plan.units}
        dropped = plan.units[0].name
        del artifacts[dropped]
        with pytest.raises(LinkError, match=dropped.replace("(", "\\(")):
            link_units(program, artifacts, OptLevel.OS, target="rt32")

    def test_all_units_hot_but_link_inputs_changed(self, flat_machine):
        """Data objects are link inputs, not unit inputs: when only the
        data changes, every unit hits and the relink must still carry
        the *current* data — cached bytes would be stale."""
        cache = CompileCache()
        program_a = lowered(flat_machine, "state-table")
        compile_program_incremental(program_a, unit_cache=cache)

        program_b = lowered(flat_machine, "state-table")
        mutated = None
        for data in program_b.data.values():
            for i, word in enumerate(data.words):
                if isinstance(word, int):
                    data.words[i] = word + 1
                    mutated = data.name
                    break
            if mutated:
                break
        assert mutated, "state-table must emit an integer data word"

        cache.reset_stats()
        inc = compile_program_incremental(program_b, unit_cache=cache)
        assert cache.stats.misses == 0 and cache.stats.hits > 0
        mono = compile_program(copy.deepcopy(program_b))
        assert compiled_bytes(inc) == compiled_bytes(mono)

    def test_gc_evicting_units_mid_batch_falls_back(self, flat_machine,
                                                    tmp_path):
        """A GC sweep between two compiles of a batch empties the unit
        store; the second compile must recompile (never link a stale or
        missing artifact) and stay byte-identical."""
        backend = DiskBackend(str(tmp_path / "units"))
        cache = CompileCache(backend)
        first = compile_program_incremental(
            lowered(flat_machine, "state-pattern"), unit_cache=cache)

        report = backend.store_dir.gc(max_bytes=0)
        assert report.dropped > 0

        cache.reset_stats()
        second = compile_program_incremental(
            lowered(flat_machine, "state-pattern"), unit_cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses > 0
        assert second.module.listing() == first.module.listing()

    @pytest.mark.parametrize("bad_entry", ["not-an-artifact",
                                           "other-target-artifact"])
    def test_corrupted_cache_entry_falls_back_to_recompile(self,
                                                           flat_machine,
                                                           bad_entry):
        """A wrong object under a unit key (collision, bit rot, the
        other target's artifact of the same unit) must degrade to a
        recompile, never to a wrong link.  The recompile is a unit-cache
        miss (a compiled unit, not a reused one) and replaces the
        entry, so the next compile reuses it."""
        cache = CompileCache()
        program = lowered(flat_machine, "nested-switch")
        plan = split_units(program, OptLevel.OS, target="rt32")
        other = split_units(program, OptLevel.OS, target="rt16")
        for unit, rt16_unit in zip(plan.units, other.units):
            entry = "not a unit artifact" \
                if bad_entry == "not-an-artifact" \
                else compile_one_unit(program, rt16_unit, OptLevel.OS,
                                      "rt16")
            cache.get_or_compute(unit.fingerprint, lambda: entry)
        cache.reset_stats()
        inc = compile_program_incremental(
            lowered(flat_machine, "nested-switch"), unit_cache=cache)
        mono = compile_program(lowered(flat_machine, "nested-switch"))
        assert inc.module.listing() == mono.module.listing()
        assert (cache.stats.hits, cache.stats.misses) == (0, len(plan.units))

        cache.reset_stats()
        again = compile_program_incremental(
            lowered(flat_machine, "nested-switch"), unit_cache=cache)
        assert again.module.listing() == mono.module.listing()
        assert (cache.stats.hits, cache.stats.misses) == (len(plan.units), 0)
