"""Strict flat key=value experiment configuration.

Format: one `key = value` per line, `#` comments, lists as `[a, b, c]`,
fitted constants as dotted keys `constants.<name> = <number>`, where the
names an experiment reads are those its `experiments.EXPERIMENTS` entry
declares.  A constant declared with an int default takes only integers.
Unknown, undeclared, repeated and out-of-range keys are rejected with their
line and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .experiments import EXPERIMENTS


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
        if not self.n_list:
            fail("invariant violated: n_list must be nonempty", "n_list")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            fail("invariant violated: n_list must be strictly ascending", "n_list")
        if self.n_list[0] < spec.n_min:
            fail(f"{self.experiment} requires n_list entries >= {spec.n_min}, "
                 f"got {self.n_list[0]}", "n_list")
        if not spec.k_min <= self.k <= spec.k_max:
            want = f"k = {spec.k_max}" if spec.k_max == spec.k_min else f"k >= {spec.k_min}"
            fail(f"{self.experiment} requires {want}, got k = {self.k}", "k")
        if self.mc_samples < 1:
            fail("mc_samples must be positive", "mc_samples")
        if self.seed < 0:
            fail("seed must be a nonnegative 64-bit integer", "seed")
        for name, value in self.constants.items():
            key = f"constants.{name}"
            if name not in spec.constants:
                fail(f"unknown key {key!r} for {self.experiment}; "
                     f"it reads constants {', '.join(spec.constants)}", key)
            if isinstance(spec.constants[name], int):
                if not isinstance(value, int):
                    fail(f"{key} must be an integer, got {value!r}", key)
                low = 0 if name == "w" else 1  # the tail offset w; every other is a count
                if value < low:
                    fail(f"{key} must be >= {low}, got {value}", key)
        if self.constants.get("u_step", 1) <= 0:
            fail(f"constants.u_step must be positive, got {self.constants['u_step']}",
                 "constants.u_step")


def default_config(experiment: str) -> ExperimentConfig:
    spec = _spec(experiment)
    return ExperimentConfig(experiment=experiment, n_list=list(spec.n_list), k=spec.k,
                            out_dir=f"pc_out/{experiment}")


def _parse_scalar(token: str, line_no: int, col: int):
    token = token.strip()
    if not token:
        raise ConfigError("empty value", line_no, col)
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(token: str, line_no: int, col: int):
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise ConfigError("unterminated list (missing ])", line_no, col)
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part, line_no, col) for part in inner.split(",")]
    return _parse_scalar(token, line_no, col)


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
            if not isinstance(value, (int, float)) or isinstance(value, bool):
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
