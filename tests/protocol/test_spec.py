"""The protocol spec must match the implementation exactly.

Its rows are derived from the registry, so what is left to check is
that the registry and the command table agree and the directions are
sane."""

from repro.protocol import commands, schema, spec, wire


class TestSpecConsistency:
    def test_type_ids_unique(self):
        ids = [s.type_id for s in spec.PROTOCOL_SPEC]
        assert len(ids) == len(set(ids))

    def test_every_display_command_in_spec(self):
        spec_impls = {s.implementation for s in spec.PROTOCOL_SPEC}
        for cls in commands.COMMAND_TYPES.values():
            assert cls in spec_impls, cls

    def test_spec_covers_nothing_unimplemented(self):
        known = set(commands.COMMAND_TYPES.values()) | \
            set(wire._CONTROL_TYPES.values())
        for entry in spec.PROTOCOL_SPEC:
            assert entry.implementation in known, entry.name

    def test_directions_valid(self):
        for entry in spec.PROTOCOL_SPEC:
            assert entry.direction in schema.DIRECTIONS, entry.name

    def test_fabric_ids_never_client_facing(self):
        assert not spec.FABRIC_TYPE_IDS & spec.UPLINK_TYPE_IDS
        assert not spec.FABRIC_TYPE_IDS & spec.DOWNLINK_TYPE_IDS

    def test_table1_commands_present_by_name(self):
        names = {s.name for s in spec.PROTOCOL_SPEC}
        assert {"RAW", "COPY", "SFILL", "PFILL", "BITMAP"} <= names


class TestReferenceRendering:
    def test_reference_mentions_every_message(self):
        doc = spec.render_protocol_reference()
        for entry in spec.PROTOCOL_SPEC:
            assert f"`{entry.name}`" in doc
            assert entry.summary.split(";")[0].split(".")[0] in doc

    def test_reference_matches_committed_doc(self):
        """docs/PROTOCOL.md is generated; regenerate if this fails."""
        import pathlib

        committed = pathlib.Path("docs/PROTOCOL.md")
        assert committed.exists(), \
            "run: python -c 'from repro.protocol.spec import *; " \
            "open(\"docs/PROTOCOL.md\",\"w\")" \
            ".write(render_protocol_reference())'"
        assert committed.read_text() == spec.render_protocol_reference()
