"""Verifiers for the itensor type system.

Section 3.1 motivates the itensor type with *type-based verification*: after
every transformation pass, connections between producers and consumers can be
checked for stream-order agreement, and converters can be checked for
realizability.  ``DataflowGraph.verify`` runs all three verifiers on every
edge; the compiler calls it after Linalg-to-dataflow conversion and again at
the end of dataflow optimisation, before bufferization drops the layouts.
"""

from __future__ import annotations

from repro.itensor.converter import infer_converter
from repro.itensor.itensor_type import ITensorError, ITensorType


class StreamVerificationError(ITensorError):
    """Raised when two connected itensor endpoints are incompatible."""


def verify_connection(producer: ITensorType, consumer: ITensorType,
                      allow_converter: bool = False) -> None:
    """Check that a producer may legally feed a consumer.

    Without a converter, the types must stream tokens in the identical order
    (Case 1 of Figure 5).  With ``allow_converter`` the check only requires
    that both types describe the same underlying tensor, since a layout
    converter can reconcile any two such layouts (Case 2).

    Raises:
        StreamVerificationError: if the connection would misinterpret data.
    """
    if producer.is_compatible_with(consumer):
        return
    if not allow_converter:
        raise StreamVerificationError(
            "producer and consumer itensor types do not match and no "
            f"converter is allowed:\n  producer: {producer}\n  consumer: {consumer}"
        )
    # A converter can reconcile the layouts only if both sides agree on the
    # underlying tensor; infer_converter performs exactly those checks.
    infer_converter(producer, consumer)


def verify_coverage(itype: ITensorType) -> None:
    """Check that the stream covers every element of its tensor at least once.

    Raises:
        StreamVerificationError: if some tensor region is never streamed
            (which would silently drop data at a kernel boundary).
    """
    shape = itype.tensor_shape()
    for dim in range(itype.rank):
        loop = itype.loop_for_data_dim(dim)
        if loop is None:
            if itype.element_size(dim) != shape[dim]:
                raise StreamVerificationError(
                    f"data dim {dim} of {itype} is not scanned by any loop but "
                    "its element size does not cover the full extent"
                )
            continue
        covered = itype.iter_tripcounts[loop] * itype.iter_steps[loop]
        if covered < shape[dim]:
            raise StreamVerificationError(
                f"data dim {dim} of {itype} only covers {covered} of {shape[dim]}"
            )
        if itype.iter_steps[loop] != itype.element_size(dim):
            raise StreamVerificationError(
                f"loop d{loop} of {itype} has step {itype.iter_steps[loop]} but "
                f"the element size along data dim {dim} is {itype.element_size(dim)}; "
                "slices would overlap or leave gaps"
            )


def verify_fifo_tokens(producer: ITensorType, consumer: ITensorType) -> int:
    """Return the number of tokens exchanged over a FIFO connection.

    The producer and consumer must agree on the total token count, otherwise
    the accelerator would deadlock (one side waiting for tokens that never
    arrive) — this is the static ``T`` value of Section 5.3.2.

    Raises:
        StreamVerificationError: on token-count mismatch.
    """
    if producer.num_iterations != consumer.num_iterations:
        raise StreamVerificationError(
            "token count mismatch across FIFO: producer streams "
            f"{producer.num_iterations}, consumer expects {consumer.num_iterations}"
        )
    return producer.num_iterations
