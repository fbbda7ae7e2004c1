"""symcast: continual one-step-ahead prediction over symbol streams.

Symbol groups are encoded into sparse integer classes by positional
match scoring against a reference row; a deviant-mean learner then
predicts each class from its predecessor and corrects itself from the
signed mismatch after every observation, through both the train and
test phases.
"""

__version__ = "0.1.0"
_MODULES = ("config", "encoder", "errors", "ingest", "learner", "pipeline", "tracetext")


def __getattr__(name: str):
    """PEP 562: the first lookup the package misses binds each module's __all__ names, and __all__.

    So the modules, and numpy, are imported only when a public name is first looked up.
    """
    from importlib import import_module
    modules = [import_module(f"{__name__}.{module}") for module in _MODULES]
    public = {key: getattr(module, key) for module in modules for key in module.__all__}
    globals().update(public, __all__=list(public))
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
