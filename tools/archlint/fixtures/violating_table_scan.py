# archlint: module=repro.core.switch_agent
"""Violating fixture for the no-table-scan-on-membership-path rule: a leave
that walks the box's whole feedback and adaptation tables to find the
leaver's rows, so its cost grows with every other meeting on the box.  The
real agent reads per-participant indexes.  CI runs the fixtures directory
with ``--no-baseline`` and requires a non-zero exit.  DO NOT "fix" these
violations.
"""


class SwitchAgent:
    def _teardown_participant_state(self, endpoint):
        address = endpoint.address
        # no-table-scan-on-membership-path: a scan of every feedback rule
        for (receiver, ssrc), _rule in self.pipeline.feedback_table.entries():
            if receiver == address:
                self.pipeline.remove_feedback_rule(receiver, ssrc)
        # no-table-scan-on-membership-path: and of every adaptation entry
        stale = [key for key, _entry in self.pipeline.control.adaptation_table.entries() if key[1] == address]
        for sender_ssrc, receiver in stale:
            self.pipeline.remove_adaptation(sender_ssrc, receiver)
