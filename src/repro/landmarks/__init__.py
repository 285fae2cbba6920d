"""Landmark-based approximate recommendation (Section 4)."""

from .selection import STRATEGIES, select_landmarks
from .index import LandmarkEntry, LandmarkIndex
from .approximate import ApproximateRecommender
from .query_engine import (
    LandmarkVectorCache,
    LandmarkVectors,
    QueryEngine,
    compose_landmark_contributions,
    vectors_from_entries,
)
from .storage import load_index, save_index

__all__ = [
    "STRATEGIES",
    "select_landmarks",
    "LandmarkIndex",
    "LandmarkEntry",
    "ApproximateRecommender",
    "LandmarkVectorCache",
    "LandmarkVectors",
    "QueryEngine",
    "compose_landmark_contributions",
    "vectors_from_entries",
    "save_index",
    "load_index",
]
