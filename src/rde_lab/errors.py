"""Semantic exception hierarchy shared by all rde_lab modules."""


class RdeLabError(Exception):
    """Base class for all library errors."""


class SpecValidationError(RdeLabError):
    """An offspring specification violates a structural assumption."""


class DomainError(RdeLabError):
    """Evaluation requested at a point where the quantity is undefined
    (e.g. a generating-function derivative at a square-root singularity)."""


class ResourceError(RdeLabError):
    """A sampled tree exceeded the configured node cap, the forest of a
    batch of trees would store more than ``simulate.MAX_FOREST_DRAWS``
    family sizes, or one step of ``distiter.apply_T`` needs more than
    ``distiter.MAX_CHILD_DRAWS`` child draws."""
