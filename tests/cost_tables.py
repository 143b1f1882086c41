"""A table-driven cost model: tests choose each engine's prediction."""

from repro.runtime.costmodel import CostModel


class TableModel(CostModel):
    """Predicts ``table[engine]`` seconds, any float (NaN and ±inf
    included); an engine the table does not name keeps its closed-form
    prediction."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = dict(table)

    def predict_seconds(self, engine, features):
        if engine in self.table:
            return self.table[engine]
        return super().predict_seconds(engine, features)
