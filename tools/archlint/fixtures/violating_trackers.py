# archlint: module=repro.dataplane.pipeline
"""Violating fixture for the share-nothing rule's register-file binding: a
datapath that clears a rewriter register cell itself.  ``self.trackers`` is
the control plane's one register file, so only ``PipelineControlPlane``
may write it.  CI runs the fixtures directory with ``--no-baseline`` and
requires a non-zero exit, proving the rule bites.  DO NOT "fix" these
violations.
"""


class PipelineDatapath:
    def _process_media(self, adaptation, rewriter):
        # rule 1: share-nothing — a register write from the datapath
        self.trackers.write(adaptation.stream_index, None)
        # rule 1 (and 3): share-nothing — a store into the register file
        self.trackers._cells[adaptation.stream_index] = rewriter
