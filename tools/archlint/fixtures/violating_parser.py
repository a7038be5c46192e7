# archlint: module=repro.dataplane.parser
"""Violating fixture for the wire-hygiene rule's byte-level-parse
jurisdiction: an ingress parser that decodes the extension block into
element objects and parses a dependency descriptor object on every parse,
instead of reading the header bytes at their offsets.  CI runs the fixtures
directory with ``--no-baseline`` and requires a non-zero exit, proving the
widened rule bites.  DO NOT "fix" these violations.
"""


class IngressParser:
    def _parse_rtp(self, packet):
        # rule 5: wire-hygiene — the object-model walk of the extension block
        elements = decode_extensions(packet.extension)
        for element in elements:
            if element.ext_id == 12:
                # rule 5: wire-hygiene — a descriptor object per parse
                descriptor = DependencyDescriptor.parse_prefix(element.data)
                # rule 5: wire-hygiene — and a template structure on key frames
                structure = TemplateStructure.l1t3()
                return descriptor, structure
        # rule 5: wire-hygiene — an extension object rebuilt from its bytes
        return RtpHeaderExtension(profile=0xBEDE, data=b"")


def decode_extensions(extension):
    return []


class DependencyDescriptor:
    @classmethod
    def parse_prefix(cls, data):
        return cls()


class TemplateStructure:
    @classmethod
    def l1t3(cls):
        return cls()


class RtpHeaderExtension:
    def __init__(self, profile, data):
        self.profile = profile
        self.data = data
