"""Exception hierarchy for the messaging layer."""


class MessagingError(Exception):
    """Base class for messaging failures."""


class EndpointClosedError(MessagingError):
    """Raised when sending to or receiving from a closed endpoint."""


class TimeoutError_(MessagingError):
    """Raised when a blocking receive exceeds its timeout.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`TimeoutError`; it still subclasses :class:`MessagingError` so
    callers can catch messaging failures uniformly.
    """


class EndpointError(MessagingError):
    """Base class for URI endpoint-resolution failures."""


class AddressError(EndpointError):
    """A malformed endpoint address (not ``scheme://locator``)."""


class UnknownSchemeError(EndpointError):
    """No transport is registered for the address's URI scheme."""


class AddressInUseError(EndpointError):
    """Binding an address (or registering a scheme) that is already taken."""


class AddressNotServedError(EndpointError):
    """Connecting to an address nothing is currently serving."""


class ConsumerRefusedError(MessagingError):
    """The producer refused a consumer's registration, e.g. (flexible
    batching) for a batch size above the configured producer batch size it
    would be sliced from.  Catch this to catch every refusal."""


class DuplicateConsumerError(ConsumerRefusedError):
    """The producer refused a consumer's registration because another live
    consumer already holds its id."""
