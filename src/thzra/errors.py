"""Exception types shared across the package."""


class ConfigError(Exception):
    """Base class for configuration problems (CLI exit code 2)."""


class MissingField(ConfigError):
    def __init__(self, field):
        super().__init__(f"missing required config field '{field}'")
        self.field = field


class OutOfRange(ConfigError):
    def __init__(self, field, value, bound):
        super().__init__(f"config field '{field}' = {value!r} violates {bound}")
        self.field = field
        self.value = value
        self.bound = bound


class DomainError(ValueError):
    """Argument outside the domain on which a closed form is defined."""


class UnsupportedParams(ValueError):
    """Parameter combination the exact sampler deliberately refuses to approximate."""
