"""Record types of the review trace.

The evaluation consumes an Amazon-style review trace.  Records carry
exactly the fields the paper's pipeline reads: reviewer identity and
malice label, targeted product, star rating, review length (the effort
proxy's second factor), upvotes ("helpful" endorsements — the feedback
signal), plus the synthetic-oracle fields our generator adds (latent
effort, planted community) that stand in for information the original
study obtained from crawled ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import DataError
from ..types import WorkerType

__all__ = ["Product", "Reviewer", "Review"]

#: Star ratings are constrained to the Amazon scale.
MIN_RATING = 1.0
MAX_RATING = 5.0


@dataclass(frozen=True)
class Product:
    """A reviewable product.

    Attributes:
        product_id: unique identifier.
        true_quality: the latent quality the synthetic generator planted
            (stands in for reality; drives honest ratings).
        expert_score: the expert-consensus review score ``l_bar`` used as
            ground truth by the requester (Section II).
        category: coarse product category (the paper mentions
            electronics, books, beauty products and medications).
    """

    product_id: str
    true_quality: float
    expert_score: float
    category: str = "general"

    def __post_init__(self) -> None:
        if not self.product_id:
            raise DataError("product_id must be non-empty")
        for name, value in (
            ("true_quality", self.true_quality),
            ("expert_score", self.expert_score),
        ):
            if not MIN_RATING <= value <= MAX_RATING:
                raise DataError(
                    f"{name} must lie in [{MIN_RATING}, {MAX_RATING}], got {value!r}"
                )


@dataclass(frozen=True)
class Reviewer:
    """A worker in the trace.

    Attributes:
        reviewer_id: unique identifier.
        worker_type: honest / non-collusive malicious / collusive
            malicious (the generator's planted ground truth, standing in
            for the crawled labels of [13]).
        community_id: planted collusive-community identifier, or ``None``
            for workers outside any community.
        latent_expertise: the generator's latent skill factor (oracle
            field; the estimation substrate recomputes expertise from
            observables instead).
    """

    reviewer_id: str
    worker_type: WorkerType
    community_id: Optional[str] = None
    latent_expertise: float = 1.0

    def __post_init__(self) -> None:
        if not self.reviewer_id:
            raise DataError("reviewer_id must be non-empty")
        if self.latent_expertise <= 0.0:
            raise DataError(
                f"latent_expertise must be positive, got {self.latent_expertise!r}"
            )
        is_collusive = self.worker_type is WorkerType.COLLUSIVE_MALICIOUS
        if is_collusive and self.community_id is None:
            raise DataError(
                f"collusive reviewer {self.reviewer_id!r} needs a community_id"
            )
        if not is_collusive and self.community_id is not None:
            raise DataError(
                f"non-collusive reviewer {self.reviewer_id!r} must not have a "
                f"community_id (got {self.community_id!r})"
            )

    @property
    def is_malicious(self) -> bool:
        """Whether the planted label marks this reviewer malicious."""
        return self.worker_type.is_malicious


@dataclass(frozen=True)
class Review:
    """A single posted review.

    Attributes:
        review_id: unique identifier.
        reviewer_id: the posting worker.
        product_id: the reviewed product.
        rating: star rating in ``[1, 5]``.
        text_length: review length in characters (paper's parametrization
            item 3).
        upvotes: "helpful" endorsements received (the feedback ``q``).
        latent_effort: the generator's true effort level behind the
            review (oracle field for tests; the estimation substrate
            derives its own effort proxy from observables).
    """

    review_id: str
    reviewer_id: str
    product_id: str
    rating: float
    text_length: int
    upvotes: int
    latent_effort: float = 0.0

    def __post_init__(self) -> None:
        if not self.review_id or not self.reviewer_id or not self.product_id:
            raise DataError("review_id, reviewer_id and product_id must be non-empty")
        if not MIN_RATING <= self.rating <= MAX_RATING:
            raise DataError(
                f"rating must lie in [{MIN_RATING}, {MAX_RATING}], got {self.rating!r}"
            )
        if self.text_length <= 0:
            raise DataError(f"text_length must be positive, got {self.text_length!r}")
        if self.upvotes < 0:
            raise DataError(f"upvotes must be >= 0, got {self.upvotes!r}")
        if self.latent_effort < 0.0:
            raise DataError(
                f"latent_effort must be >= 0, got {self.latent_effort!r}"
            )
