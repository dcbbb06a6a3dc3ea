"""Dataset container with split handling."""

from __future__ import annotations

import numpy as np

from .classes import ClassTaxonomy
from .ingredients import IngredientLexicon
from .schema import Recipe

__all__ = ["RecipeDataset"]


class RecipeDataset:
    """All recipes plus train/val/test split bookkeeping.

    Parameters
    ----------
    recipes:
        Every generated :class:`Recipe`, indexed by position.
    splits:
        Mapping ``"train" | "val" | "test"`` → sorted index arrays.
    taxonomy, lexicon:
        The generating taxonomy and ingredient lexicon (kept for
        qualitative experiments and class-name lookups).
    """

    def __init__(self, recipes: list[Recipe], splits: dict[str, np.ndarray],
                 taxonomy: ClassTaxonomy, lexicon: IngredientLexicon):
        self.recipes = recipes
        self.taxonomy = taxonomy
        self.lexicon = lexicon
        self.splits = {name: np.asarray(idx, dtype=np.int64)
                       for name, idx in splits.items()}
        self._validate()

    def _validate(self) -> None:
        required = {"train", "val", "test"}
        if set(self.splits) != required:
            raise ValueError(f"splits must be exactly {required}")
        all_indices = np.concatenate(list(self.splits.values()))
        if len(np.unique(all_indices)) != len(all_indices):
            raise ValueError("splits overlap")
        if all_indices.max(initial=-1) >= len(self.recipes):
            raise ValueError("split index out of range")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.recipes)

    def __getitem__(self, index: int) -> Recipe:
        return self.recipes[index]

    def split(self, name: str) -> list[Recipe]:
        """Recipes of one split, in index order."""
        return [self.recipes[i] for i in self.splits[name]]

    def split_indices(self, name: str) -> np.ndarray:
        return self.splits[name]

    def quarantine_corrupt(self, report=None):
        """Drop corrupt records, returning ``(clean_dataset, report)``.

        Each recipe is validated (non-empty text fields, label inside
        the taxonomy, finite channel-first image); failures are recorded
        in the :class:`~repro.robustness.quarantine.QuarantineReport`
        and removed, with split indices remapped accordingly. When every
        record is healthy the dataset is returned unchanged (no copy).
        """
        from ..robustness.quarantine import QuarantineReport, validate_recipe

        report = report if report is not None else QuarantineReport()
        keep: list[int] = []
        for index, recipe in enumerate(self.recipes):
            reason = validate_recipe(recipe, num_classes=len(self.taxonomy))
            if reason is None:
                keep.append(index)
            else:
                report.add(recipe.recipe_id, reason)
        if len(keep) == len(self.recipes):
            return self, report
        remap = {old: new for new, old in enumerate(keep)}
        cleaned = RecipeDataset(
            [self.recipes[i] for i in keep],
            {name: np.array([remap[int(i)] for i in rows
                             if int(i) in remap], dtype=np.int64)
             for name, rows in self.splits.items()},
            self.taxonomy, self.lexicon)
        return cleaned, report

    def labeled_fraction(self, split: str = "train") -> float:
        recipes = self.split(split)
        if not recipes:
            return 0.0
        return sum(r.is_labeled for r in recipes) / len(recipes)

    def summary(self) -> str:
        """Human-readable dataset description."""
        lines = [
            f"SyntheticRecipe1M: {len(self)} pairs, "
            f"{len(self.taxonomy)} classes, "
            f"{len(self.lexicon)} ingredients",
        ]
        for name in ("train", "val", "test"):
            recipes = self.split(name)
            labeled = sum(r.is_labeled for r in recipes)
            lines.append(f"  {name}: {len(recipes)} pairs "
                         f"({labeled} labeled)")
        return "\n".join(lines)
