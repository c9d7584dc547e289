"""Command-line surface: run verification suites and evaluate
individual special functions / correlators.

Usage:

    qvirasoro verify --suite all --q 0.49 --t 0.7 --json
    qvirasoro verify --suite defining-relation --q 0.7 --t 0.3 \
        --degree 5 --window 3 --json
    qvirasoro eval phi21 --a 0.3 --b 0.5 --c 0.8 --q 0.5 --z 0.2

Configuration precedence: command-line flags override environment
variables (prefix ``QVIR_``, e.g. ``QVIR_DEGREE=5``), which override a
``--config`` file (``key = value`` lines mirroring flag names), which
override built-in defaults.  All three are read through the one table
``KEYS``, so a value means the same wherever it is given.

Exit status: 0 all checks passed; 1 at least one failed; 2 none failed
but at least one was inconclusive; 3 configuration error.  ``eval``
exits 0 with the value, 1 where the evaluation raises (a pole, a
divergent sum, an overflow, a division by zero) and 3 on a
configuration error; neither command prints a traceback for these.

JSON records have exactly the fields {identity, pass, residual,
tolerance, worst_location, params:{q, t, ell, k, L, r, seed},
truncation:{degree, window}, runtime_ms}; ``seed`` rides inside
``params`` because it parameterizes randomized probes the same way the
deformation numbers do: it seeds ``random.Random``, whose stream Python
keeps stable for a given int seed, and ``delta-identity`` draws its
roots from it.  Identical configuration (including seed) gives
byte-identical output apart from runtime_ms.  An inconclusive check
reports ``pass: false`` with residual Infinity and is distinguished by
the exit status.

The bracket period ``r`` defaults to the admissible value 1/beta
(beta = log t / log q), the unique period at which the elliptic
connection identity holds; ``--r`` overrides it and ``--r auto`` (or
``r = auto`` in a config file) restores it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass

from . import correlators, qspecial, relations
from .errors import ConfigError, QVirasoroError, RegimeError
from .qspecial import QParams
from .report import CheckReport, _overflow_text

# key -> (kind, default, help).  Flags, QVIR_ variables and config-file
# lines are all read through this table by ``_parse_value``; ``list`` is
# the comma-separated suite selection.
KEYS = {
    "q": (float, 0.49, "deformation parameter, 0 < q < 1"),
    "t": (float, 0.7, "deformation parameter, 0 < t < 1, t != q"),
    "ell": (int, 1, "first vertex label, at least 1"),
    "k": (int, 1, "second vertex label, at least 1"),
    "L": (float, 0.5, "correlator weight"),
    "r": (float, None, "bracket period; 'auto' is the admissible 1/beta"),
    "degree": (int, 4, "basis degree cap"),
    "window": (int, 4, "mode window"),
    "tol": (float, None, "override tolerances"),
    "seed": (int, 12345, "seed of the randomized probes"),
    "suite": (list, ["all"], "suite name (repeatable or comma-separated); "
              "'all' runs everything"),
    "json": (bool, False, "emit JSON records"),
    "csv": (bool, False, "emit CSV rows"),
}
DEFAULTS = {key: default for key, (_, default, _) in KEYS.items()}


@dataclass(frozen=True)
class SuiteConfig:
    """Resolved run configuration for the verification runner."""

    q: float
    t: float
    ell: int
    k: int
    L: float
    r: float | None
    degree: int
    window: int
    tol: float | None
    seed: int
    suites: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0 and 0.0 < self.t < 1.0):
            raise ConfigError("q and t must lie strictly between 0 and 1")
        if abs(self.q / self.t - 1.0) < 1e-12:
            raise ConfigError("q = t is excluded (the p = 1 degeneration)")
        if self.r is None:
            object.__setattr__(self, "r", self.params.period)
        if not 0.0 < self.r < math.inf:
            raise ConfigError("bracket period r must be positive and finite")
        if not math.isfinite(self.L):
            raise ConfigError("L must be finite")
        if self.tol is not None and not 0.0 <= self.tol < math.inf:
            raise ConfigError("tolerance must be non-negative and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.degree < self.window:
            raise ConfigError("degree cap must be at least the mode window")
        if self.degree < 0 or self.window < 0:
            raise ConfigError("degree and window must be non-negative")
        if self.ell < 1 or self.k < 1:
            raise ConfigError("vertex labels need ell, k >= 1")
        try:
            qspecial.BracketParams(self.q, self.ell, self.r)
        except RegimeError as exc:
            raise ConfigError(f"bracket period r={self.r!r}: {exc}") from None

    @property
    def params(self) -> QParams:
        return QParams(self.q, self.t)


# ---------------------------------------------------------------------------
# Suite registry


# name -> call(cfg, **tol) returning the reports, tol holding ``tolerance``
# only when --tol is set, so each check's own default is the only copy.
# Each call looks its checker up on the module when it runs, so a
# wrapper installed on the module attribute sees every check.
SUITES = {
    "defining-relation": lambda c, **tol: [
        relations.check_defining_relation(c.params, c.degree, c.window, **tol)
    ],
    "screening": lambda c, **tol: [
        relations.check_screening_relation(c.params, +1, c.degree, c.window, **tol)
    ],
    "screening-mirror": lambda c, **tol: [
        relations.check_screening_relation(c.params, -1, c.degree, c.window, **tol)
    ],
    "vertex-exchange": lambda c, **tol: [
        relations.check_vertex_exchange(c.ell, c.params, v, c.degree, c.window, **tol)
        for v in ("plain", "theta", "mirror")
    ],
    "current-vertex-exchange": lambda c, **tol: [
        relations.check_current_vertex_exchange(
            c.ell, c.params, c.degree, c.window, **tol
        )
    ],
    "adjoint-shift": lambda c, **tol: [
        relations.check_adjoint_shift(
            c.ell, c.params, range(-c.window, c.window + 1), c.degree, **tol
        )
    ],
    "exchange-rewrite": lambda c, **tol: [
        relations.check_exchange_rewrite(c.ell, c.params, c.degree, c.window, **tol)
    ],
    "composite-exchange": lambda c, **tol: [
        relations.check_composite_exchange(
            c.ell, c.k, c.params, c.degree, c.window, **tol
        )
    ],
    "fusion": lambda c, **tol: [relations.check_fusion(c.ell, c.params, **tol)],
    "argument-shift": lambda c, **tol: [
        relations.check_argument_shift(c.ell, c.params, **tol)
    ],
    "delta-identity": lambda c, **tol: [
        relations.check_delta_identity(c.seed, **tol)
    ],
    "qspecial": lambda c, **tol: [relations.check_qspecial(**tol)],
    "two-point": lambda c, **tol: [
        correlators.check_two_point(c.params, c.ell, **tol)
    ],
    "four-point": lambda c, **tol: [
        correlators.check_four_point(c.params, c.ell, c.L, **tol)
    ],
    "pseudo-constant": lambda c, **tol: [
        correlators.check_pseudo_constant(c.params, c.ell, **tol)
    ],
    "connection": lambda c, **tol: [
        correlators.check_connection_formula(c.params, c.ell, c.L, c.r, **tol)
    ],
}


# ---------------------------------------------------------------------------
# Configuration resolution


_BOOLEAN = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False
)


def _parse_value(key: str, raw: str):
    if key not in KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    kind, raw = KEYS[key][0], raw.strip()
    if kind is list:
        return [s.strip() for s in raw.split(",") if s.strip()]
    if key == "r" and raw.lower() in ("auto", "none"):
        return None
    try:
        return _BOOLEAN[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{kind.__name__} key {key!r} got {raw!r}") from None


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, raw = line.partition("=")
                if not eq:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                out[key.strip()] = _parse_value(key.strip(), raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _read_env() -> dict:
    keys = {f"QVIR_{key.upper()}": key for key in KEYS}
    unknown = sorted(n for n in os.environ if n.startswith("QVIR_") and n not in keys)
    if unknown:
        raise ConfigError(f"unknown configuration variable(s) {', '.join(unknown)}")
    env = {key: os.environ.get(name) for name, key in keys.items()}
    return {key: _parse_value(key, raw) for key, raw in env.items() if raw is not None}


def _resolve(args: argparse.Namespace) -> tuple[SuiteConfig, str]:
    merged = dict(DEFAULTS)
    if args.config:
        merged.update(_read_config_file(args.config))
    merged.update(_read_env())
    for key in KEYS:
        raw = getattr(args, key)  # a string, or the --suite list
        if raw is not None:
            merged[key] = _parse_value(key, ",".join(raw) if key == "suite" else raw)
    suites = merged.pop("suite")
    if "all" in suites:
        suites = list(SUITES)
    unknown = [s for s in suites if s not in SUITES]
    if unknown or not suites:
        what = f"unknown suite(s) {', '.join(unknown)}" if unknown else "no suite selected"
        raise ConfigError(
            f"{what}; valid names: " + ", ".join(sorted(SUITES)) + ", all"
        )
    as_json, as_csv = merged.pop("json"), merged.pop("csv")
    if as_json and as_csv:
        raise ConfigError("--json and --csv are exclusive")
    cfg = SuiteConfig(**merged, suites=tuple(suites))
    return cfg, "json" if as_json else ("csv" if as_csv else "text")


# ---------------------------------------------------------------------------
# Report emission


def _record(rep: CheckReport, cfg: SuiteConfig) -> dict:
    return {
        "identity": rep.identity,
        "pass": rep.passed,
        "residual": rep.residual,
        "tolerance": rep.tolerance,
        "worst_location": rep.worst_location,
        "params": {k: getattr(cfg, k) for k in ("q", "t", "ell", "k", "L", "r", "seed")},
        "truncation": {"degree": cfg.degree, "window": cfg.window},
        "runtime_ms": rep.runtime_ms,
    }


def emit_report(reports: list[CheckReport], cfg: SuiteConfig, fmt: str) -> str:
    """Serialize reports; JSON/CSV are deterministic apart from
    runtime_ms."""
    if fmt == "json":
        return json.dumps([_record(r, cfg) for r in reports], indent=2)
    if fmt == "csv":
        rows = []
        for r in reports:
            # params and truncation expand in place, in _record's key order
            row = {}
            for key, value in _record(r, cfg).items():
                row.update(value if isinstance(value, dict) else {key: value})
            rows.append(row)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
        return buf.getvalue().rstrip("\n")
    lines = [r.summary_line() for r in reports]
    n_pass = sum(r.passed for r in reports)
    n_inc = sum(r.status == "inconclusive" for r in reports)
    n_fail = len(reports) - n_pass - n_inc
    lines.append(
        f"{len(reports)} checks: {n_pass} passed, {n_fail} failed, "
        f"{n_inc} inconclusive"
    )
    return "\n".join(lines)


def run(cfg: SuiteConfig) -> list[CheckReport]:
    """Execute the selected suites in order; ``--tol`` replaces every
    check's default tolerance.  Each check decides its own verdict, so a
    pole or a divergent sum makes that check alone inconclusive."""
    tol = {} if cfg.tol is None else {"tolerance": cfg.tol}
    return [rep for name in cfg.suites for rep in SUITES[name](cfg, **tol)]


def _exit_status(reports: list[CheckReport]) -> int:
    if any(r.status == "fail" for r in reports):
        return 1
    if any(r.status == "inconclusive" for r in reports):
        return 2
    return 0


# ---------------------------------------------------------------------------
# eval subcommand


def _cp(ns) -> correlators.CorrelatorParams:
    L = 1.0 if ns.L is None else ns.L
    return correlators.CorrelatorParams(QParams(ns.q, ns.t), ns.ell, L, ns.r)


def _qpoch(ns) -> float:
    if ns.n is None:
        return qspecial.qpoch_inf(ns.a, ns.q)
    if ns.n < 0:
        raise ConfigError("finite qpoch needs --n >= 0")
    return qspecial.qpoch(ns.a, ns.q, ns.n)


def _four_point(ns) -> float:
    closed = ns.method == "closed"
    fn = correlators.four_point_closed if closed else correlators.four_point_jackson
    return fn(ns.branch, ns.z, ns.w, _cp(ns))


# name -> (required flags, in the order a missing one is reported;
# evaluation of the parsed flags)
EVAL_FUNCTIONS = {
    "phi21": (
        ("a", "b", "c", "q", "z"),
        lambda ns: qspecial.phi21(ns.a, ns.b, ns.c, ns.q, ns.z),
    ),
    "qpoch": (("a", "q"), _qpoch),
    "gamma-q": (("x", "q"), lambda ns: qspecial.gamma_q(ns.x, ns.q)),
    "beta-q": (("a", "b", "q"), lambda ns: qspecial.beta_q(ns.a, ns.b, ns.q)),
    "theta-q": (("z", "q"), lambda ns: qspecial.theta_q(ns.z, ns.q)),
    "bracket": (
        ("u", "q", "r"),
        lambda ns: qspecial.bracket(ns.u, qspecial.BracketParams(ns.q, ns.ell, ns.r)),
    ),
    "two-point": (
        ("z", "w", "q", "t"),
        lambda ns: correlators.two_point(ns.z, ns.w, _cp(ns)),
    ),
    "screening-wave": (
        ("x", "q", "t"),
        lambda ns: correlators.screening_wave(ns.x, _cp(ns)),
    ),
    "four-point": (("z", "w", "q", "t"), _four_point),
}


# ---------------------------------------------------------------------------
# Entry point


def _finite(raw: str) -> float:
    """argparse type of the eval float flags: a finite number."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors exit 3.  argparse takes an argument
    that starts with '-' for a value only where it reads like -2 or
    -0.25; this parser also takes exponent forms such as -2.5e-1 and
    -1E-1, since no flag of this CLI looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qvirasoro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    for key, (kind, _, help_text) in KEYS.items():
        # every value stays a string until _parse_value reads it
        if kind is bool:
            v.add_argument(f"--{key}", action="store_const", const="true", help=help_text)
        else:
            action = "append" if kind is list else "store"
            v.add_argument(f"--{key}", action=action, help=help_text)
    v.add_argument("--config", help="file of 'key = value' lines")

    e = sub.add_parser("eval", help="evaluate a single function")
    e.add_argument("function", choices=sorted(EVAL_FUNCTIONS))
    for flag in ("a", "b", "c", "q", "t", "z", "w", "x", "u", "L", "r"):
        e.add_argument(f"--{flag}", type=_finite, default=None)
    e.add_argument("--n", type=int, default=None)
    e.add_argument("--ell", type=int, default=1)
    e.add_argument("--branch", choices=("plus", "minus"), default="plus")
    e.add_argument("--method", choices=("closed", "jackson"), default="closed")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            cfg, fmt = _resolve(args)
            reports = run(cfg)
            try:
                print(emit_report(reports, cfg, fmt))
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader left early (``| head``): send the rest to devnull
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return _exit_status(reports)
        required, evaluate = EVAL_FUNCTIONS[args.function]
        missing = [flag for flag in required if getattr(args, flag) is None]
        if missing:
            raise ConfigError(f"eval function missing required --{missing[0]}")
        print(f"{evaluate(args):.17g}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QVirasoroError, ArithmeticError) as exc:
        text = _overflow_text(exc) if isinstance(exc, OverflowError) else exc
        name = f"{args.function}: " if args.command == "eval" else ""
        print(f"error: {name}{text}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
