"""Strict flat key=value experiment configuration.

Format: one `key = value` per line, `#` comments, lists as `[a, b, c]`,
fitted constants as dotted keys `constants.<name> = <number>`, where the
names an experiment reads are those its `experiments.EXPERIMENTS` entry
declares.  A constant declared with an int default takes only integers, and
every constant is finite and positive, except w >= 0 and lp_samples >= 2,
w keeps the tail divergence threshold below the sampler grid end, and the
u-grid constants make a grid that tails.u_grid accepts.
Unknown, undeclared, repeated and out-of-range keys are rejected with their
line and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .complexity import MAX_MC_SAMPLES
from .errors import ConfigError, InvalidInputError
from .experiments import EXPERIMENTS
from .tails import MAX_W, SAMPLER_GRID_END, divergence_threshold, u_grid


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
    seed: int = 42
    mc_samples: int = 20000
    constants: dict = field(default_factory=dict)
    out_dir: str = ""

    def validate(self, where=None) -> None:
        """Raise ConfigError on the first invalid field; `where` maps a key to
        the (line, column) it was read from."""
        def fail(message, key):
            raise ConfigError(message, *(where or {}).get(key, ()))

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
        if not 2 <= self.mc_samples <= MAX_MC_SAMPLES:  # a standard error needs two samples
            fail(f"mc_samples must be between 2 and {MAX_MC_SAMPLES}, got {self.mc_samples}",
                 "mc_samples")
        if self.seed < 0:
            fail("seed must be a nonnegative 64-bit integer", "seed")
        for name, value in self.constants.items():
            key = f"constants.{name}"
            if name not in spec.constants:
                fail(f"unknown key {key!r} for {self.experiment}; "
                     f"it reads constants {', '.join(spec.constants)}", key)
            if isinstance(spec.constants[name], int) and not isinstance(value, int):
                fail(f"{key} must be an integer, got {value!r}", key)
            # w is a tail offset, lp_samples a Monte Carlo sample count; nan fails < inf
            low = {"w": 0, "lp_samples": 2}.get(name)
            if not value < math.inf or (value <= 0 if low is None else value < low):
                fail(f"{key} must be finite and {'positive' if low is None else f'>= {low}'}"
                     f", got {value}", key)
            # tails-demo's sampler tabulates q on u <= SAMPLER_GRID_END, past the threshold
            if name == "w" and (value > MAX_W
                                or divergence_threshold(value) >= SAMPLER_GRID_END):
                fail(f"{key} must put the divergence threshold below the sampler grid end "
                     f"u = {SAMPLER_GRID_END:g}, got {value}", key)
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
    "out_dir": (lambda v: isinstance(v, str), "out_dir must be a path"),
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
    with open(path) as fh:
        return parse_config_text(fh.read())
