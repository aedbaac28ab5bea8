"""Strict flat key=value experiment configuration.

Format: one `key = value` per line, `#` comments, lists as `[a, b, c]`,
fitted constants as dotted keys `constants.<name> = <number>`, where the
names an experiment reads are those its `experiments.EXPERIMENTS` entry
declares.  A constant declared with an int default takes only integers at
most complexity.MAX_MC_SAMPLES, the row budget, and every constant is
finite and positive, except w >= 0 and lp_samples >= 2.  Each rule another
module owns is checked by that module: mc_samples and seed by building a
complexity.EstimatorConfig, w by the sampler grid's own check and the
u-grid constants by tails.u_grid.  The n_list entries are at least the
experiment's n_min, and a run that draws weights has k times the largest n
at most complexity.MAX_WEIGHT_WIDTH, the widest weight row.  Unknown,
undeclared, repeated and out-of-range keys are rejected with their line and
column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .complexity import DEFAULT_CONFIG, MAX_MC_SAMPLES, MAX_WEIGHT_WIDTH, EstimatorConfig
from .errors import ConfigError, InvalidInputError
from .experiments import EXPERIMENTS
from .tails import _check_sampler_w, u_grid


def _spec(experiment: str):
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment]


@dataclass
class ExperimentConfig:
    experiment: str
    n_list: list = field(default_factory=list)
    k: int = 1
    seed: int = DEFAULT_CONFIG.seed
    mc_samples: int = DEFAULT_CONFIG.mc_samples
    constants: dict = field(default_factory=dict)
    out_dir: str = ""

    def validate(self, where=None) -> None:
        """Raise ConfigError on the first invalid field; `where` maps a key to
        the (line, column) it was read from.  The types come first, by the
        checks parse_config_text makes line by line, so a config built in
        code meets them too."""
        def fail(message, key):
            raise ConfigError(message, *(where or {}).get(key, ()))

        for key, (accepts, message) in _TYPED_KEYS.items():
            if not accepts(getattr(self, key)):
                fail(message, key)
        spec = _spec(self.experiment)
        if len(self.n_list) < spec.n_count_min:
            fail(f"{self.experiment} requires at least {spec.n_count_min} n_list "
                 f"entries, got {len(self.n_list)}", "n_list")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            fail("invariant violated: n_list must be strictly ascending", "n_list")
        if self.n_list[0] < spec.n_min:
            fail(f"{self.experiment} requires n_list entries >= {spec.n_min}, "
                 f"got {self.n_list[0]}", "n_list")
        if not spec.k_min <= self.k <= spec.k_max:
            want = f"k = {spec.k_max}" if spec.k_max == spec.k_min else f"k >= {spec.k_min}"
            fail(f"{self.experiment} requires {want}, got k = {self.k}", "k")
        if spec.draws_weights and self.k * self.n_list[-1] > MAX_WEIGHT_WIDTH:
            key = "k" if self.k > spec.k else "n_list"  # k past its default, else n
            fail(f"{self.experiment} requires k * n <= {MAX_WEIGHT_WIDTH}, got "
                 f"k * n = {self.k} * {self.n_list[-1]}", key)
        for key in ("mc_samples", "seed"):
            try:
                EstimatorConfig(**{key: getattr(self, key)})
            except InvalidInputError as exc:
                fail(str(exc), key)
        for name, value in self.constants.items():
            key = f"constants.{name}"
            if name not in spec.constants:
                fail(f"unknown key {key!r} for {self.experiment}; "
                     f"it reads constants {', '.join(spec.constants)}", key)
            integral = isinstance(spec.constants[name], int)
            if not isinstance(value, int if integral else (int, float)):
                fail(f"{key} must be {'an integer' if integral else 'a number'}, got {value!r}", key)
            if integral and value > MAX_MC_SAMPLES:  # it sizes a run: the row budget bounds it
                fail(f"{key} must be at most {MAX_MC_SAMPLES}, got {value}", key)
            # w is a tail offset, lp_samples a Monte Carlo sample count; nan fails < inf
            low = {"w": 0, "lp_samples": 2}.get(name)
            if not value < math.inf or (value <= 0 if low is None else value < low):
                fail(f"{key} must be finite and {'positive' if low is None else f'>= {low}'}"
                     f", got {value}", key)
            if name == "w":  # tails-demo brackets C_w on the sampler's grid at w
                try:
                    _check_sampler_w(value)
                except InvalidInputError as exc:
                    fail(f"{key}: {exc}", key)
        if "u_stop" in spec.constants:
            grid = ("u_start", "u_stop", "u_step")
            try:
                u_grid(*({**spec.constants, **self.constants}[name] for name in grid))
            except InvalidInputError as exc:
                # the default grid is valid, so the file sets a grid key: blame the last
                key = "constants." + [name for name in self.constants if name in grid][-1]
                fail(f"{key}: {exc}", key)


def default_config(experiment: str) -> ExperimentConfig:
    spec = _spec(experiment)
    return ExperimentConfig(experiment=experiment, n_list=list(spec.n_list), k=spec.k,
                            out_dir=f"pc_out/{experiment}")


def _parse_value(token: str, line_no: int, col: int):
    """The list of the comma-separated values in `[...]`, else an int, else a
    float, else the stripped token."""
    token = token.strip()
    if not token:
        raise ConfigError("empty value", line_no, col)
    if token.startswith("["):
        if not token.endswith("]"):
            raise ConfigError("unterminated list (missing ])", line_no, col)
        inner = token[1:-1].strip()
        return [_parse_value(part, line_no, col) for part in inner.split(",")] if inner else []
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


# Every key besides constants.*: (accepts its parsed value, message if not).
_TYPED_KEYS = {
    "experiment": (lambda v: isinstance(v, str), "experiment must be a name"),
    "n_list": (lambda v: isinstance(v, list) and all(isinstance(x, int) for x in v),
               "n_list must be a list of integers"),
    "k": (lambda v: isinstance(v, int), "k must be an integer"),
    "seed": (lambda v: isinstance(v, int), "seed must be an integer"),
    "mc_samples": (lambda v: isinstance(v, int), "mc_samples must be an integer"),
    "out_dir": (lambda v: isinstance(v, str) or hasattr(v, "__fspath__"), "out_dir must be a path"),
}


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment="")
    where = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", line_no, 1)
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        col = line.index(key) + 1 if key else 1
        value = _parse_value(value_part, line_no, line.index("=") + 2)
        if key.startswith("constants."):
            name = key[len("constants."):]
            if not name:
                raise ConfigError("constants key needs a name", line_no, col)
            if not isinstance(value, (int, float)):
                raise ConfigError(f"constant {name!r} must be numeric", line_no, col)
        elif key not in _TYPED_KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no, col)
        elif not _TYPED_KEYS[key][0](value):
            raise ConfigError(_TYPED_KEYS[key][1], line_no, col)
        if key in where:
            raise ConfigError(f"repeated key {key!r} (first on line {where[key][0]})",
                              line_no, col)
        where[key] = (line_no, col)
        if key.startswith("constants."):
            cfg.constants[name] = value
        else:
            setattr(cfg, key, value)
    if not cfg.experiment:
        raise ConfigError("missing required key 'experiment'")
    defaults = default_config(cfg.experiment)
    for key in _TYPED_KEYS.keys() - where.keys():
        setattr(cfg, key, getattr(defaults, key))
    cfg.validate(where)
    return cfg


def parse_config(path) -> ExperimentConfig:
    """parse_config_text on the file at path, read as UTF-8 with or without
    a byte-order mark; bytes that are not UTF-8 raise ConfigError naming
    the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    return parse_config_text(text)
