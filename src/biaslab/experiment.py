"""Config-driven experiment grid: generate, fit, audit, aggregate, render.

A run maps (cell, replication) pairs to audits. Replication r of cell c
uses the derived seed base XOR hash(c, r), so every replication owns an
independent stream and the aggregated output does not depend on execution
order. Aggregation averages the per-replication statistics in replication
order with exactly rounded sums; the aggregated tau is recomputed as
b_group1 - b_group0 so the identity holds for the reported means.

Each parametric cell is compared with the limit of its own fit, the
pseudo-true fit of its model on the whole population (White 1982;
Gourieroux, Monfort & Trognon 1984), which is 0 for a correctly specified
cell. A forest cell has none. The tests hold the closed forms to it. The
cell also keeps that limit's coefficients (beta for a correctly specified
cell), where each replication's probit or logit Newton fit starts.

A cell's verdict is read from ``compare``'s z-scores: consistent iff every
scored |z| <= z_threshold. An ols cell's verdict leaves b_pop out:
the normal equations of a fit with an intercept make its in-sample mean
error exactly 0, so the emitted b_pop and se_pop are rounding, no z-score.

A config with an unknown or missing key, a non-number where a number
goes, an invalid covariance, a group with under two rows or a cell whose
reference cannot be computed (a pooled Var(X1) too small) is refused at
parse time, as a ConfigError from the rule that finds it (the reference
raises its own).
Cells whose fit raises (separation, rank deficiency, non-convergence) or
whose audit has a non-finite statistic become "error" rows naming the
replication and its seed; a run always reports fully.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

# The closed forms are not called here; benchmarks/tracing.py wraps them on this module
# by getattr and the test suite runs benchmarks/tests, so they stay bound.
from .analytic_linear import GroupErrorPrediction, omitted_group_errors  # noqa: F401
from .analytic_probit import omitted_group_errors_probit  # noqa: F401
from .audit import _SE_OF, ErrorReport, column_mean_se, error_report
from .dgp import _RISK_FUNCTIONS, DgpSpec, _SEED_MASK, _count, derive_seed, generate
from .estimators import (
    FEATURE_SETS,
    _check_features,
    _check_forest_rows,
    _population_errors,
    fit_forest,
    fit_logit,
    fit_ols,
    fit_probit,
    predict,
)
from .exceptions import BiaslabError, ConfigError
from .moments import GroupGaussianSpec, MixtureSpec, _list, _real

MODELS = ("ols", "probit", "logit", "forest")
DEFAULT_SEED = 20240914
DEFAULT_REPLICATIONS = 30

TABLE_BETA = (-2.0, 1.0, 1.0)
TABLE_BETA_POLY = (-2.0, 1.0, 1.0, 1.0, 1.0, -1.0)
TABLE_MIXTURE = MixtureSpec(
    groups=(
        GroupGaussianSpec(mean=(1.0, 1.0), covariance=((1.0, 0.5), (0.5, 1.0))),
        GroupGaussianSpec(mean=(1.0, 3.0), covariance=((1.0, -0.5), (-0.5, 1.0))),
    ),
    weight_protected=0.5,
)


@dataclass(frozen=True)
class ExperimentCell:
    """One grid cell: a data generating process, a model family, a feature set."""

    dgp: DgpSpec
    model: str
    features: str
    # analytic_for_cell(self), evaluated once: a reference it cannot compute refuses the
    # cell. start, the limit's coefficients, is where a probit/logit fit's Newton starts.
    analytic: GroupErrorPrediction | None = field(init=False, compare=False, repr=False)
    start: tuple[float, ...] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError("unknown model %r, expected one of %r" % (self.model, MODELS))
        _check_features(self.features)
        if self.model in _RISK_FUNCTIONS and self.dgp.family not in _RISK_FUNCTIONS:
            raise ConfigError(
                "%s model needs binary outcomes; DGP family %r has none"
                % (self.model, self.dgp.family)
            )
        if self.model == "forest":
            _check_forest_rows(2 * self.dgp.n_per_group)
        analytic, start = analytic_for_cell(self)
        object.__setattr__(self, "analytic", analytic)
        object.__setattr__(self, "start", start)


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[ExperimentCell, ...]
    replications: int = DEFAULT_REPLICATIONS
    base_seed: int = DEFAULT_SEED
    z_threshold: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "cells", _list("cells", self.cells))
        if not self.cells:
            raise ConfigError("config needs at least one cell")
        _count("replications", self.replications, 1)
        # derive_seed reads a seed modulo 2**64: a seed outside would alias one inside
        _count("seed", self.base_seed, 0, _SEED_MASK)
        z = _real("z_threshold", self.z_threshold)
        if not 0 < z < math.inf:
            raise ConfigError("z_threshold must be a finite positive number, got %r" % (z,))


@dataclass
class ResultRow:
    """Aggregated statistics for one cell; an error row keeps NaN statistics.

    ``reports`` (the per-replication audits, kept on request) is a runtime
    extra and is excluded from serialization so emitted output depends only
    on the config (byte-identical reruns).
    """

    dgp: str
    model: str
    features: str
    replications: int
    b_pop: float = math.nan
    b_g0: float = math.nan
    b_g1: float = math.nan
    tau: float = math.nan
    se_pop: float = math.nan
    se_g0: float = math.nan
    se_g1: float = math.nan
    se_tau: float = math.nan
    analytic_b_g0: float | None = None
    analytic_b_g1: float | None = None
    analytic_tau: float | None = None
    verdict: str = ""
    error: str = ""
    reports: tuple[ErrorReport, ...] | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """The serialized fields; a non-finite statistic is None, as NaN is not JSON."""
        values = ((name, getattr(self, name)) for name in _ROW_FIELDS)
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in values}


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow) if f.name != "reports")
_CSV_FIELDS = tuple(name for name in _ROW_FIELDS if name not in ("replications", "error"))
CSV_HEADER = ",".join(_CSV_FIELDS)


def _column(name: str) -> str:
    """The column of an ErrorReport or reference field: b_group0 -> b_g0, se_group0 -> se_g0."""
    return name.replace("group", "g")


# The markdown table's (title, field) columns; a statistic's title is its report field.
_MARKDOWN_COLUMNS = (
    ("DGP", "dgp"), ("Model", "model"), ("Features", "features"),
    *((name, _column(name)) for name in _SE_OF),
)


def analytic_for_cell(
    cell: ExperimentCell,
) -> tuple[GroupErrorPrediction, tuple[float, ...]] | tuple[None, None]:
    """The group errors and the coefficients a cell's fit converges to; (None, None) for a forest.

    A correctly specified cell converges to the truth, beta, so its errors
    are 0. Any other parametric cell converges to its model's pseudo-true fit
    on the whole mixture, computed by quadrature (estimators._population_errors).
    """
    dgp, model = cell.dgp, cell.model
    if model == "forest":
        return None, None
    pairs = (("linear", "ols"), ("probit", "probit"), ("logit", "logit"))
    if cell.features == "both" and (dgp.family, model) in pairs:  # correctly specified
        return GroupErrorPrediction.of_groups(0.0, 0.0, dgp.mixture), dgp.beta
    gaps, coefficients = _population_errors(dgp, model, cell.features)
    return GroupErrorPrediction.of_groups(*gaps, dgp.mixture), coefficients


def run_replication(cell: ExperimentCell, seed: int) -> ErrorReport:
    """Generate one dataset, fit the cell's model, audit score vs truth.

    A probit or logit fit starts at the cell's limit coefficients. A forest
    is audited on the out-of-bag scores its fit already made.
    """
    dataset = generate(cell.dgp, seed)
    if cell.model == "ols":
        model = fit_ols(dataset, cell.features)
    elif cell.model == "probit":
        model = fit_probit(dataset, cell.features, start=cell.start)
    elif cell.model == "logit":
        model = fit_logit(dataset, cell.features, start=cell.start)
    else:
        model = fit_forest(dataset, cell.features, seed=derive_seed(seed, "forest"))
        return error_report(model.fitted, dataset.y, dataset.a)
    return error_report(predict(model, dataset.x1, dataset.x2), dataset.y, dataset.a)


def aggregate(reports: list[ErrorReport]) -> ErrorReport:
    """Combine per-replication reports, in replication order, into means and replication SEs.

    A single replication is returned as it is, with its within-sample SEs;
    otherwise SE = std(stat across reps, ddof=1) / sqrt(R) and the row
    counts are summed. The exact sums make the result the same in any order;
    the four statistics share their two passes (``audit.column_mean_se``).
    """
    if len(reports) == 1:
        return reports[0]
    table = [[getattr(r, name) for name in _SE_OF] for r in reports]
    stats = {}
    for (name, se), pair in zip(_SE_OF.items(), column_mean_se(table)):
        stats[name], stats[se] = pair
    stats["tau"] = stats["b_group1"] - stats["b_group0"]  # exact for the reported means
    counts = {n: sum(getattr(r, n) for r in reports) for n in ("n_pop", "n_group0", "n_group1")}
    return ErrorReport(**stats, **counts)


def _non_finite(report: ErrorReport) -> str:
    """Name the report's non-finite statistics, or "" when all are finite."""
    names = [name for name, value in vars(report).items() if not math.isfinite(value)]
    return "non-finite statistics: %s" % ", ".join(names) if names else ""


def compare(analytic: GroupErrorPrediction, empirical: ErrorReport) -> dict[str, float]:
    """Z-score of each statistic, (empirical - analytic) / SE, by name.

    The analytic value is the population limit of the fit, so no slack is
    added to the SE. A zero SE gives z = 0 where the two values agree
    exactly and inf otherwise.
    """
    z_scores = {}
    for name, se in _SE_OF.items():
        denom = getattr(empirical, se)
        diff = getattr(empirical, name) - getattr(analytic, name)
        if denom == 0.0:
            z_scores[name] = 0.0 if diff == 0.0 else math.inf
        else:
            z_scores[name] = diff / denom
    return z_scores


def run_cell(
    cell: ExperimentCell, cell_index: int, config: ExperimentConfig, keep_reports: bool = False
) -> ResultRow:
    row = ResultRow(cell.dgp.family, cell.model, cell.features, config.replications)
    reports = []
    for r in range(config.replications):
        seed = derive_seed(config.base_seed, cell_index, r)
        try:
            reports.append(run_replication(cell, seed))
            failure = _non_finite(reports[-1])
        except BiaslabError as err:
            failure = "%s: %s" % (type(err).__name__, err)
        if failure:
            row.verdict = "error"
            row.error = "replication %d (seed %d): %s" % (r, seed, failure)
            return row
    report = aggregate(reports)
    for name in (*_SE_OF, *_SE_OF.values()):
        setattr(row, _column(name), getattr(report, name))
    if (analytic := cell.analytic) is not None:
        z_scores = compare(analytic, report)
        if cell.model == "ols":  # b_pop is rounding, see the module docstring
            del z_scores["b_pop"]
        for name in ("b_group0", "b_group1", "tau"):
            setattr(row, "analytic_" + _column(name), getattr(analytic, name))
        consistent = all(abs(z) <= config.z_threshold for z in z_scores.values())
        row.verdict = "consistent" if consistent else "inconsistent"
    if keep_reports:
        row.reports = tuple(reports)
    return row


def run(config: ExperimentConfig, keep_reports: bool = False) -> list[ResultRow]:
    """Run every cell; deterministic given the config."""
    return [
        run_cell(cell, idx, config, keep_reports=keep_reports)
        for idx, cell in enumerate(config.cells)
    ]


def table1_config() -> ExperimentConfig:
    """The built-in ten-cell grid at the reference 10,000 rows per group.

    Its seed and replication count are ``ExperimentConfig``'s defaults.
    Row order matches the published layout: linear, logistic, probit,
    forest (both on the linear DGP), then polynomial; each model first
    with both features, then with X1 only.
    """

    def dgp(family: str) -> DgpSpec:
        beta = TABLE_BETA_POLY if family == "polynomial" else TABLE_BETA
        return DgpSpec(
            family=family, beta=beta, mixture=TABLE_MIXTURE, n_per_group=10_000
        )

    cells = []
    for family, model in (
        ("linear", "ols"),
        ("logit", "logit"),
        ("probit", "probit"),
        ("linear", "forest"),
        ("polynomial", "ols"),
    ):
        for features in FEATURE_SETS:
            cells.append(ExperimentCell(dgp=dgp(family), model=model, features=features))
    return ExperimentConfig(cells=tuple(cells))


def _cell(value) -> str:
    """One csv or markdown cell: a string as it is, a number to 6 significant digits."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return "%.6g" % value


def _markdown_row(cells) -> str:
    return "| %s |" % " | ".join(cells)


def render(rows: list[ResultRow], fmt: str) -> str:
    """Render rows as csv, markdown or json text (6 significant digits for
    the table formats; json keeps full precision)."""
    if fmt == "json":
        return json.dumps({"rows": [r.to_dict() for r in rows]}, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(_cell(getattr(r, f)) for f in _CSV_FIELDS) for r in rows]
    elif fmt == "markdown":
        titles, names = zip(*_MARKDOWN_COLUMNS)
        lines = [_markdown_row(titles), "|---" * len(titles) + "|"]
        lines += [_markdown_row(_cell(getattr(r, f)) for f in names) for r in rows]
    else:
        raise ConfigError("unknown output format %r" % (fmt,))
    return "\n".join(lines) + "\n"


def _fields_from(cls, level: str, obj, **json_keys) -> dict:
    """The keyword arguments of dataclass cls found in a JSON object.

    Its keys are cls's field names, or the JSON key json_keys gives a field;
    any other key, or a missing one for a field without a default, is
    refused. An absent optional key takes the dataclass default.
    """
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a JSON object, got %r" % (level, obj))
    keys = {json_keys.get(f.name, f.name): f for f in fields(cls) if f.init}
    for key in obj:
        if key not in keys:
            raise ConfigError("unknown %s key %r, known: %r" % (level, key, tuple(keys)))
    for key, f in keys.items():
        if key not in obj and f.default is MISSING:
            raise ConfigError("missing %s key %r" % (level, key))
    return {f.name: obj[key] for key, f in keys.items() if key in obj}


def parse_mixture(obj: dict) -> MixtureSpec:
    """Build a MixtureSpec from its JSON form; unknown and missing keys are refused."""
    mixture = _fields_from(MixtureSpec, "mixture", obj)
    groups = [
        _fields_from(GroupGaussianSpec, "group", g) for g in _list("groups", mixture.pop("groups"))
    ]
    return MixtureSpec([GroupGaussianSpec(**g) for g in groups], **mixture)


def parse_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON form; unknown and missing keys are refused."""
    config = _fields_from(ExperimentConfig, "top-level", obj, base_seed="seed")
    cells = []
    for cell_obj in _list("cells", config.pop("cells")):
        cell = _fields_from(ExperimentCell, "cell", cell_obj)
        dgp = _fields_from(DgpSpec, "dgp", cell.pop("dgp"))
        dgp["mixture"] = parse_mixture(dgp["mixture"])
        cells.append(ExperimentCell(DgpSpec(**dgp), **cell))
    return ExperimentConfig(cells, **config)


def _load_json(path, what: str):
    """The JSON object in file ``path``; an unreadable file or bad JSON is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError("cannot load %s %r: %s" % (what, str(path), err)) from err


def load_config(path) -> ExperimentConfig:
    return parse_config(_load_json(path, "config"))
