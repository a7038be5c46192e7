# archlint: module=repro.cluster.cluster
"""Violating fixture for the one-membership-path rule: federation code that
drives a box's replication manager directly, bypassing
``SwitchAgent.configure_meeting`` (which picks the meeting's design and
releases what departed members held).  Real cluster code configures a box
through its controller.  CI runs the fixtures directory with
``--no-baseline`` and requires a non-zero exit.  DO NOT "fix" these
violations.
"""


def shed_trunk_endpoint(member, meeting_id, endpoints, design):
    # one-membership-path: a sync that skips the agent's design picker and
    # leaves the departed endpoint's feedback rules behind
    member.agent.replication.sync_meeting(meeting_id, endpoints, design)


def drop_meeting(member, meeting_id):
    # one-membership-path: removing the meeting leaves the agent's
    # registrations of its members behind
    member.agent.replication.remove_meeting(meeting_id)
