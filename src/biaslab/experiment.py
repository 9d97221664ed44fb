"""Config-driven experiment grid: generate, fit, audit, aggregate, emit.

A run maps (cell, replication) pairs to audits. Replication r of cell c
uses the derived seed base XOR hash(c, r), so every replication owns an
independent stream and the aggregated output does not depend on execution
order. Aggregation averages the per-replication statistics in replication
order with exactly rounded sums; the aggregated tau is recomputed as
b_group1 - b_group0 so the identity holds for the reported means.

Analytic predictions are attached where a closed form exists:

* correct specification (linear/ols, probit/probit, logit/logit on both
  features): all-zero errors;
* linear DGP fit by ols on X1 only: the omitted-variable closed form,
  exact for any mixture;
* probit DGP fit by probit on X1 only: the probit closed form, only when
  its independence/equal-variance assumptions hold, and compared with an
  extra 0.02 tolerance in quadrature because the pooled X2 is a mixture
  rather than the Gaussian the derivation assumes. That slack does not
  cover the closed form's level shift (see PROBIT_MIXTURE_TOLERANCE).

``run_cell`` alone turns audit.compare's z-scores into a verdict, consistent
iff every scored |z| <= z_threshold. An ols cell's verdict leaves b_pop out:
the normal equations of a fit with an intercept make its in-sample mean
error exactly 0, so the emitted b_pop and se_pop are rounding, no z-score.

A config with an unknown or missing key, a non-number where a number
goes, an invalid covariance, a group with under two rows or a cell whose
closed form raises (Var(X1) too small) is refused at parse time. Cells
whose fit raises (separation, rank deficiency, non-convergence) or whose
audit has a non-finite statistic become rows with verdict "error" and a
message naming the replication and its seed; a run always reports fully.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields

from .analytic_linear import (
    GroupErrorPrediction,
    LinearDgpCoefficients,
    omitted_group_errors,
)
from .analytic_probit import ProbitDgpCoefficients, omitted_group_errors_probit
from .audit import ErrorReport, compare, error_report, mean_se
from .dgp import (
    CLASSIFICATION_FAMILIES,
    DgpSpec,
    _count,
    derive_seed,
    generate,
)
from .estimators import (
    FEATURE_SETS,
    MIN_LEAF,
    fit_forest,
    fit_logit,
    fit_ols,
    fit_probit,
    predict,
)
from .exceptions import (
    AssumptionViolationError,
    BiaslabError,
    ConfigError,
    InvalidCovarianceError,
)
from .moments import GroupGaussianSpec, MixtureSpec, _real

MODELS = ("ols", "probit", "logit", "forest")
DEFAULT_SEED = 20240914
DEFAULT_REPLICATIONS = 30

# Slack for the probit closed form when the groups' X2 means differ. It does
# not cover the closed form's error: its group levels sit a common 0.030 above
# the population limit of the fitted short probit on group means (1, 1) and
# (1, 3) with identity covariances, so a correct large-sample fit of such a
# cell can read inconsistent. Its tau is exact when both groups share X1's
# law. See biaslab.analytic_probit.
PROBIT_MIXTURE_TOLERANCE = 0.02

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

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError("unknown model %r, expected one of %r" % (self.model, MODELS))
        if self.features not in FEATURE_SETS:
            raise ConfigError("features must be one of %r, got %r" % (FEATURE_SETS, self.features))
        if self.model in ("probit", "logit") and self.dgp.family not in CLASSIFICATION_FAMILIES:
            raise ConfigError(
                "%s model needs binary outcomes; DGP family %r has none"
                % (self.model, self.dgp.family)
            )
        if self.model == "forest" and self.dgp.n_per_group < MIN_LEAF:
            raise ConfigError(
                "forest cells need n_per_group >= %d, got %d" % (MIN_LEAF, self.dgp.n_per_group)
            )
        analytic_for_cell(self)  # a closed form's precondition refuses the cell before it runs


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[ExperimentCell, ...]
    replications: int = DEFAULT_REPLICATIONS
    base_seed: int = DEFAULT_SEED
    z_threshold: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise ConfigError("config needs at least one cell")
        try:
            _count("replications", self.replications, 1)
            _count("seed", self.base_seed)
            z = _real("z_threshold", self.z_threshold)
        except ValueError as err:
            raise ConfigError(str(err)) from err
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
        return {name: getattr(self, name) for name in _ROW_FIELDS}


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow) if f.name != "reports")
_CSV_FIELDS = tuple(name for name in _ROW_FIELDS if name not in ("replications", "error"))
CSV_HEADER = ",".join(_CSV_FIELDS)


def analytic_for_cell(cell: ExperimentCell) -> tuple[GroupErrorPrediction | None, float]:
    """Closed-form prediction for a cell, plus the comparison slack it needs.

    Returns (None, 0.0) when no closed form covers the cell (polynomial
    DGP, forest model, logit omitted-variable, or probit omitted-variable
    with violated assumptions).
    """
    dgp, model, features = cell.dgp.family, cell.model, cell.features
    correct_spec = (dgp, model) in (("linear", "ols"), ("probit", "probit"), ("logit", "logit"))
    if features == "both" and correct_spec:
        return GroupErrorPrediction(0.0, 0.0, 0.0, 0.0), 0.0
    if features == "x1_only" and dgp == "linear" and model == "ols":
        beta = LinearDgpCoefficients(*cell.dgp.beta)
        return omitted_group_errors(beta, cell.dgp.mixture), 0.0
    if features == "x1_only" and dgp == "probit" and model == "probit":
        beta = ProbitDgpCoefficients(*cell.dgp.beta)
        try:
            return omitted_group_errors_probit(beta, cell.dgp.mixture), PROBIT_MIXTURE_TOLERANCE
        except AssumptionViolationError:
            return None, 0.0
    return None, 0.0


def run_replication(cell: ExperimentCell, seed: int) -> ErrorReport:
    """Generate one dataset, fit the cell's model, audit score vs truth."""
    dataset = generate(cell.dgp, seed)
    if cell.model == "ols":
        model = fit_ols(dataset, cell.features)
    elif cell.model == "probit":
        model = fit_probit(dataset, cell.features)
    elif cell.model == "logit":
        model = fit_logit(dataset, cell.features)
    else:
        model = fit_forest(dataset, cell.features, seed=derive_seed(seed, "forest"))
    predictions = predict(model, dataset.x1, dataset.x2)
    return error_report(predictions, dataset.y, dataset.a)


def aggregate(indexed_reports: list[tuple[int, ErrorReport]]) -> ErrorReport:
    """Combine per-replication reports into means and replication SEs.

    Input pairs may arrive in any order; they are sorted by replication
    index first, so the result is independent of execution schedule. A
    single replication is returned as it is, with its within-sample SEs;
    otherwise SE = std(stat across reps, ddof=1) / sqrt(R) and the row
    counts are summed.
    """
    reports = [rep for _, rep in sorted(indexed_reports, key=lambda pair: pair[0])]
    if len(reports) == 1:
        return reports[0]
    b_pop, se_pop = mean_se([r.b_pop for r in reports])
    b_g0, se_g0 = mean_se([r.b_group0 for r in reports])
    b_g1, se_g1 = mean_se([r.b_group1 for r in reports])
    _, se_tau = mean_se([r.tau for r in reports])
    return ErrorReport(
        b_pop=b_pop,
        b_group0=b_g0,
        b_group1=b_g1,
        tau=b_g1 - b_g0,  # identity holds exactly for the reported means
        se_pop=se_pop,
        se_group0=se_g0,
        se_group1=se_g1,
        se_tau=se_tau,
        n_pop=sum(r.n_pop for r in reports),
        n_group0=sum(r.n_group0 for r in reports),
        n_group1=sum(r.n_group1 for r in reports),
    )


def _non_finite(report: ErrorReport) -> str:
    """Name the report's non-finite statistics, or "" when all are finite."""
    names = [name for name, value in vars(report).items() if not math.isfinite(value)]
    return "non-finite statistics: %s" % ", ".join(names) if names else ""


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
    report = aggregate(list(enumerate(reports)))
    row.b_pop, row.b_g0, row.b_g1, row.tau = (
        report.b_pop, report.b_group0, report.b_group1, report.tau
    )
    row.se_pop, row.se_g0, row.se_g1, row.se_tau = (
        report.se_pop, report.se_group0, report.se_group1, report.se_tau
    )
    analytic, extra_tol = analytic_for_cell(cell)
    if analytic is not None:
        z_scores = compare(analytic, report, extra_tol)
        if cell.model == "ols":  # b_pop is rounding, see the module docstring
            del z_scores["b_pop"]
        row.analytic_b_g0 = analytic.b_group0
        row.analytic_b_g1 = analytic.b_group1
        row.analytic_tau = analytic.tau
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


def table1_config(
    replications: int = DEFAULT_REPLICATIONS, base_seed: int = DEFAULT_SEED
) -> ExperimentConfig:
    """The built-in ten-cell grid at the reference 10,000 rows per group.

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
    return ExperimentConfig(
        cells=tuple(cells), replications=replications, base_seed=base_seed
    )


def _sig6(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return "%.6g" % value


def render(rows: list[ResultRow], fmt: str) -> str:
    """Render rows as csv, markdown or json text (6 significant digits for
    the table formats; json keeps full precision)."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            values = (getattr(r, name) for name in _CSV_FIELDS)
            lines.append(",".join(v if isinstance(v, str) else _sig6(v) for v in values))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        header = "| DGP | Model | Features | b_pop | b_group0 | b_group1 | tau |"
        rule = "|---|---|---|---|---|---|---|"
        lines = [header, rule]
        for r in rows:
            lines.append(
                "| %s | %s | %s | %s | %s | %s | %s |"
                % (
                    r.dgp, r.model, r.features,
                    _sig6(r.b_pop), _sig6(r.b_g0), _sig6(r.b_g1), _sig6(r.tau),
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"rows": [r.to_dict() for r in rows]}, indent=2) + "\n"
    raise ConfigError("unknown output format %r" % (fmt,))


def emit(rows: list[ResultRow], fmt: str, destination=None) -> None:
    """Write rendered rows to a path, or to stdout when destination is None."""
    text = render(rows, fmt)
    if destination is None:
        sys.stdout.write(text)
        return
    try:
        with open(destination, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError("cannot write %r: %s" % (destination, err)) from err


def _fields_from(cls, level: str, obj, **json_keys) -> dict:
    """The keyword arguments of dataclass cls found in a JSON object.

    Its keys are cls's field names, or the JSON key json_keys gives a field;
    any other key, or a missing one for a field without a default, is
    refused. An absent optional key takes the dataclass default.
    """
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a JSON object, got %r" % (level, obj))
    keys = {json_keys.get(f.name, f.name): f for f in fields(cls)}
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
    try:
        groups = [_fields_from(GroupGaussianSpec, "group", g) for g in mixture.pop("groups")]
        return MixtureSpec([GroupGaussianSpec(**g) for g in groups], **mixture)
    except (TypeError, ValueError, InvalidCovarianceError) as err:
        raise ConfigError("malformed mixture spec: %s" % err) from err


def parse_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON form; unknown and missing keys are refused."""
    config = _fields_from(ExperimentConfig, "top-level", obj, base_seed="seed")
    try:
        cells = []
        for cell_obj in config.pop("cells"):
            cell = _fields_from(ExperimentCell, "cell", cell_obj)
            dgp = _fields_from(DgpSpec, "dgp", cell.pop("dgp"))
            dgp["mixture"] = parse_mixture(dgp["mixture"])
            cells.append(ExperimentCell(DgpSpec(**dgp), **cell))
        return ExperimentConfig(cells, **config)
    except (TypeError, ValueError) as err:
        raise ConfigError("malformed config: %s" % err) from err


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError("cannot load config %r: %s" % (str(path), err)) from err
    return parse_config(obj)
