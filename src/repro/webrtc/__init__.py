"""Simulated WebRTC client substrate (encoder, receiver, GCC, stats, client)."""

from .encoder import AudioSource, EncodedFrame, RtpPacketizer, SvcEncoder
from .decoder import AudioReceiveStream, VideoReceiveStream
from .gcc import RemoteBitrateEstimator
from .stats import (
    InboundAudioStats,
    InboundVideoStats,
    OutboundStats,
    StatsReport,
    snapshot_audio,
    snapshot_video,
)
from .client import ClientConfig, WebRtcClient

__all__ = [
    "AudioSource",
    "EncodedFrame",
    "RtpPacketizer",
    "SvcEncoder",
    "AudioReceiveStream",
    "VideoReceiveStream",
    "RemoteBitrateEstimator",
    "InboundAudioStats",
    "InboundVideoStats",
    "OutboundStats",
    "StatsReport",
    "snapshot_audio",
    "snapshot_video",
    "ClientConfig",
    "WebRtcClient",
]
