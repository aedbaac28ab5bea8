"""Strict flat key=value experiment configuration.

Format: one `key = value` per line, `#` comments, lists as `[a, b, c]`,
fitted constants as dotted keys `constants.<name> = <float>`.  Unknown keys
are rejected with their line and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

# Every experiment and its default n_list; the single list of experiment
# names that validate() accepts.
_DEFAULT_N_LISTS = {
    "lemma-checks": [4, 8, 12],
    "scaling-k1": [64, 128, 256, 512, 1024, 2048, 4096],
    "scaling-k2": [64, 128, 256, 512, 1024, 2048, 4096],
    "scaling-kk": [64, 128, 256, 512, 1024, 2048, 4096],
    "composition-logfree": [16, 32, 64, 128, 256],
    "rkhs-bound": [8, 32, 128],
    "tails-demo": [1],
    "chaining-demo": [30],
}

_DEFAULT_K = {"scaling-k2": 2, "scaling-kk": 4, "rkhs-bound": 2}


@dataclass
class ExperimentConfig:
    experiment: str
    n_list: list = field(default_factory=list)
    k: int = 1
    seed: int = 42
    mc_samples: int = 20000
    constants: dict = field(default_factory=dict)
    out_dir: str = ""

    def validate(self) -> None:
        if self.experiment not in _DEFAULT_N_LISTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {', '.join(_DEFAULT_N_LISTS)}"
            )
        if not self.n_list:
            raise ConfigError("invariant violated: n_list must be nonempty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("invariant violated: n_list must be strictly ascending")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative 64-bit integer")


def default_config(experiment: str) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=experiment)
    cfg.n_list = list(_DEFAULT_N_LISTS.get(experiment, [16, 32, 64]))
    cfg.k = _DEFAULT_K.get(experiment, 1)
    cfg.out_dir = f"pc_out/{experiment}"
    return cfg


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
    seen = set()
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
            cfg.constants[name] = float(value)
            continue
        if key not in _TYPED_KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no, col)
        accepts, message = _TYPED_KEYS[key]
        if not accepts(value):
            raise ConfigError(message, line_no, col)
        setattr(cfg, key, value)
        seen.add(key)
    if not cfg.experiment:
        raise ConfigError("missing required key 'experiment'")
    defaults = default_config(cfg.experiment)
    for key in _TYPED_KEYS.keys() - seen:
        setattr(cfg, key, getattr(defaults, key))
    cfg.validate()
    return cfg


def parse_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())
