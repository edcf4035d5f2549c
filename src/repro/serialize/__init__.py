"""Object (de)serialization used by stores before talking to connectors."""
from repro.serialize.buffers import BytesLike
from repro.serialize.buffers import SerializedObject
from repro.serialize.buffers import freeze_payload
from repro.serialize.buffers import payload_nbytes
from repro.serialize.buffers import segments_of
from repro.serialize.buffers import to_bytes
from repro.serialize.buffers import write_segments
from repro.serialize.serializer import deserialize
from repro.serialize.serializer import serialize
from repro.serialize.serializer import small_frame_threshold
from repro.serialize.registry import SerializerRegistry
from repro.serialize.registry import default_registry
from repro.serialize.registry import register_serializer
from repro.serialize.registry import unregister_serializer

__all__ = [
    'BytesLike',
    'SerializedObject',
    'SerializerRegistry',
    'default_registry',
    'deserialize',
    'freeze_payload',
    'payload_nbytes',
    'register_serializer',
    'segments_of',
    'serialize',
    'small_frame_threshold',
    'to_bytes',
    'unregister_serializer',
    'write_segments',
]
